"""Tests for the protocol state machine and outcome classification."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wbcsim.protocol import (
    ABORT,
    AdversaryConfig,
    Outcome,
    OutOfDomainError,
    ParameterError,
    ProtocolParams,
    Transcript,
    check_phase,
    classify_broadcast,
    classify_transcript,
    classify_weak_broadcast,
    cross_check,
    invocation_honest,
    run_protocol,
)
from wbcsim.source import Event, global_counts

A = ABORT
ACH = Outcome.ACHIEVED
FAIL = Outcome.FAILURE
CONFIGS = (AdversaryConfig.NO_FAULTY, AdversaryConfig.S_FAULTY, AdversaryConfig.R0_FAULTY)

# (y_S, y0, y1) -> (no-faulty, S-faulty, R0-faulty) verdicts
BROADCAST_TABLE = [
    (0, 0, 0, ACH, ACH, ACH),
    (0, 0, 1, FAIL, FAIL, FAIL),
    (0, 1, 0, FAIL, FAIL, ACH),
    (0, 1, 1, FAIL, ACH, FAIL),
    (1, 0, 0, FAIL, ACH, FAIL),
    (1, 0, 1, FAIL, FAIL, ACH),
    (1, 1, 0, FAIL, FAIL, FAIL),
    (1, 1, 1, ACH, ACH, ACH),
]

WEAK_BROADCAST_TABLE = [
    (0, 0, 0, ACH, ACH, ACH),
    (0, 0, 1, FAIL, FAIL, FAIL),
    (0, 0, A, FAIL, ACH, FAIL),
    (0, 1, 0, FAIL, FAIL, ACH),
    (0, 1, 1, FAIL, ACH, FAIL),
    (0, 1, A, FAIL, ACH, FAIL),
    (0, A, 0, FAIL, ACH, ACH),
    (0, A, 1, FAIL, ACH, FAIL),
    (0, A, A, FAIL, ACH, FAIL),
    (1, 0, 0, FAIL, ACH, FAIL),
    (1, 0, 1, FAIL, FAIL, ACH),
    (1, 0, A, FAIL, ACH, FAIL),
    (1, 1, 0, FAIL, FAIL, FAIL),
    (1, 1, 1, ACH, ACH, ACH),
    (1, 1, A, FAIL, ACH, FAIL),
    (1, A, 0, FAIL, ACH, FAIL),
    (1, A, 1, FAIL, ACH, ACH),
    (1, A, A, FAIL, ACH, FAIL),
]


class TestThresholds:
    @pytest.mark.parametrize(
        "mu,lam,m,T,Q",
        [
            ("0.272", "0.94", 143, 39, 3),
            ("0.272", "0.94", 246, 67, 5),
            ("0.272", "0.94", 280, 77, 5),
            ("0.3", "0.8", 12, 4, 1),
        ],
    )
    def test_examples(self, mu, lam, m, T, Q):
        p = ProtocolParams.create(mu, lam, m)
        assert (p.T, p.Q) == (T, Q)

    def test_integral_boundary_is_exact(self):
        # mu*m = 1 exactly must give T = 1, which float rounding would miss
        assert ProtocolParams.create("0.1", "0.9", 10).T == 1

    @pytest.mark.parametrize("mu,lam", [("0", "0.9"), ("0.34", "0.9"), (Fraction(1, 3), "0.9"), ("0.25", "0.5"), ("0.25", "1")])
    def test_out_of_range_parameters(self, mu, lam):
        with pytest.raises(ParameterError):
            ProtocolParams.create(mu, lam, 100)

    def test_nonpositive_m(self):
        with pytest.raises(ParameterError):
            ProtocolParams.create("0.25", "0.9", 0)

    def test_params_carry_exact_rationals(self):
        p = ProtocolParams.create("0.272", "0.94", 143)
        assert p.mu == Fraction(272, 1000) and p.lam == Fraction(94, 100)

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(33, 100)),
        st.fractions(min_value=Fraction(51, 100), max_value=Fraction(99, 100)),
        st.integers(1, 500),
    )
    def test_threshold_invariants(self, mu, lam, m):
        p = ProtocolParams.create(mu, lam, m)
        T, Q = p.T, p.Q
        assert T == math.ceil(mu * m)
        assert 1 <= T <= m
        assert 1 <= Q <= T

    def test_create_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            ProtocolParams.create(object(), "0.9", 10)


class TestTruthTables:
    @pytest.mark.parametrize("y_s,y0,y1,nf,sf,rf", BROADCAST_TABLE)
    def test_broadcast_table(self, y_s, y0, y1, nf, sf, rf):
        expected = dict(zip(CONFIGS, (nf, sf, rf)))
        for cfg in CONFIGS:
            assert classify_broadcast(cfg, y_s, y0, y1) is expected[cfg]

    @pytest.mark.parametrize("y_s,y0,y1,nf,sf,rf", WEAK_BROADCAST_TABLE)
    def test_weak_broadcast_table(self, y_s, y0, y1, nf, sf, rf):
        expected = dict(zip(CONFIGS, (nf, sf, rf)))
        for cfg in CONFIGS:
            assert classify_weak_broadcast(cfg, y_s, y0, y1) is expected[cfg]

    def test_broadcast_rejects_abort(self):
        with pytest.raises(ValueError):
            classify_broadcast(AdversaryConfig.NO_FAULTY, 0, ABORT, 0)

    def test_weak_broadcast_rejects_bad_values(self):
        with pytest.raises(ValueError):
            classify_weak_broadcast(AdversaryConfig.NO_FAULTY, ABORT, 0, 0)
        with pytest.raises(ValueError):
            classify_weak_broadcast(AdversaryConfig.NO_FAULTY, 0, 2, 0)


@pytest.fixture
def params12():
    return ProtocolParams.create("0.3", "0.8", 12)


class TestPhases:
    def test_honest_invocation_collects_matching_indices(self):
        e = Event.from_outcomes(["0011", "1100", "0011", "0101"])
        x0, sigma0, x1, sigma1, y_s = invocation_honest(e, 0)
        assert (x0, x1, y_s) == (0, 0, 0)
        assert sigma0 == sigma1 == frozenset({1, 3})
        _, sigma0, _, _, _ = invocation_honest(e, 1)
        assert sigma0 == frozenset({2})

    def test_check_phase_length_condition(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        assert check_phase(e, "R0", 0, frozenset({1, 2, 3}), params12) is ABORT  # |sigma| = 3 < T = 4
        assert check_phase(e, "R0", 0, frozenset({1, 2, 3, 4}), params12) == 0

    def test_check_phase_consistency_condition(self, params12):
        # R0 measures 1 on 0011 but 0 on 1100: a 1100 index betrays x = 0
        e = Event.from_outcomes(["0011", "0011", "0011", "1100"] * 3)
        assert check_phase(e, "R0", 0, frozenset({1, 2, 3, 4}), params12) is ABORT
        assert check_phase(e, "R0", 0, frozenset({1, 2, 3, 5}), params12) == 0
        assert check_phase(e, "R1", 1, frozenset({4, 8, 12}), params12) is ABORT  # too short
        e4 = Event.from_outcomes(["1100"] * 12)
        assert check_phase(e4, "R1", 1, frozenset({1, 2, 3, 4}), params12) == 1

    def test_cross_check_keeps_value_when_not_confused(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        rho = frozenset({1, 2, 3, 4})
        assert cross_check(0, 0, rho, e, params12) == 0
        assert cross_check(ABORT, 0, rho, e, params12) is ABORT
        assert cross_check(1, ABORT, rho, e, params12) == 1

    def test_cross_check_requires_length(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        assert cross_check(1, 0, frozenset({1, 2, 3}), e, params12) == 1

    def test_cross_check_adoption_budget(self, params12):
        # adoption iff fewer than Q = 1 of rho01's indices are inconsistent,
        # for any |rho01| >= T: the budget does not grow with the set
        e = Event.from_outcomes(["0011"] * 6 + ["1100"] * 6)
        consistent4 = frozenset({1, 2, 3, 4})  # R1 reads 1 = 1 - y01 everywhere
        assert cross_check(1, 0, consistent4, e, params12) == 0
        one_bad = frozenset({1, 2, 3, 7})
        assert cross_check(1, 0, one_bad, e, params12) == 1
        one_bad_longer = frozenset({1, 2, 3, 4, 5, 7})
        assert cross_check(1, 0, one_bad_longer, e, params12) == 1

    @given(st.lists(st.integers(0, 5), min_size=4, max_size=12))
    @settings(max_examples=60)
    def test_cross_check_matches_budget_rule(self, codes):
        p = ProtocolParams.create("0.3", "0.8", len(codes))
        e = Event(tuple(codes))
        rho = frozenset(range(1, len(codes) + 1))
        inconsistent = sum(1 for i in rho if e.r1_bit(i) == 0)
        got = cross_check(1, 0, rho, e, p)
        if len(rho) >= p.T and inconsistent < p.Q:
            assert got == 0
        else:
            assert got == 1


class TestRunProtocol:
    def test_event_length_mismatch(self, params12):
        with pytest.raises(ValueError):
            run_protocol(Event.from_outcomes(["0011"] * 3), params12, AdversaryConfig.NO_FAULTY)

    def test_no_faulty_rejects_strategy(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        with pytest.raises(ValueError):
            run_protocol(e, params12, AdversaryConfig.NO_FAULTY, strategy=object())

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_no_faulty_fails_iff_support_below_threshold(self, m):
        p = ProtocolParams.create("0.3", "0.8", m)
        for codes in itertools.product(range(6), repeat=m):
            e = Event(codes)
            t = run_protocol(e, p, AdversaryConfig.NO_FAULTY, x_s=0)
            expected = FAIL if global_counts(e).g[0] < p.T else ACH
            assert classify_transcript(AdversaryConfig.NO_FAULTY, t) is expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("cfg", [AdversaryConfig.NO_FAULTY, AdversaryConfig.R0_FAULTY], ids=lambda c: c.value)
    def test_flip_symmetry(self, cfg, m):
        # Each Event at x_S = 0 and its complement at x_S = 1 get the same
        # verdict, or are out of the strategy domain for the same reason.
        def verdict(e, x_s):
            try:
                return classify_transcript(cfg, run_protocol(e, p, cfg, x_s=x_s))
            except OutOfDomainError as exc:
                return exc.reason

        p = ProtocolParams.create("0.3", "0.8", m)
        for codes in itertools.product(range(6), repeat=m):
            e = Event(codes)
            assert verdict(e, 0) == verdict(e.flipped(), 1)

    def test_no_faulty_success_transcript(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        t = run_protocol(e, params12, AdversaryConfig.NO_FAULTY, x_s=0)
        assert (t.y_s, t.y0, t.y1) == (0, 0, 0)
        assert t.sigma0 == frozenset(range(1, 13))


class TestTranscriptJson:
    def test_serialization(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        t = run_protocol(e, params12, AdversaryConfig.NO_FAULTY, x_s=0)
        data = json.loads(t.to_json())
        assert data["y_S"] == 0 and data["y0"] == 0 and data["y1"] == 0
        assert data["sigma0"] == sorted(data["sigma0"])

    def test_abort_encoding(self):
        t = Transcript(0, 0, 0, frozenset(), frozenset(), 0, ABORT, ABORT, ABORT, frozenset(), ABORT)
        data = json.loads(t.to_json())
        assert data["y0"] == "abort" and data["y1"] == "abort"
