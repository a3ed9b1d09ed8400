"""Tests for the protocol state machine and outcome classification."""

import ast
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wbcsim.protocol as protocol
from wbcsim.analytics import pf_bruteforce
from wbcsim.montecarlo import estimate_pf
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
    _reason,
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

    @pytest.mark.parametrize("m", [2.5, 12.0, True, "12", Fraction(12)])
    def test_non_integer_m(self, m):
        # 2.5 used to give T = 1 and True to act as m = 1
        with pytest.raises(ParameterError, match="must be a positive count"):
            ProtocolParams.create("0.3", "0.8", m)

    def test_numpy_integer_m_becomes_an_int(self):
        p = ProtocolParams.create("0.3", "0.8", np.int64(12))
        assert type(p.m) is int and p == ProtocolParams.create("0.3", "0.8", 12)

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


    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(33, 100)),
        st.fractions(min_value=Fraction(51, 100), max_value=Fraction(99, 100)),
        st.lists(st.integers(0, 5), min_size=4, max_size=40),
        st.data(),
    )
    @settings(max_examples=100)
    def test_cross_check_matches_the_rational_rule(self, mu, lam, codes, data):
        # the paper's rule: adopt iff consistent >= lam*T + |rho01| - T
        p = ProtocolParams.create(mu, lam, len(codes))
        e = Event(tuple(codes))
        rho = frozenset(data.draw(st.sets(st.integers(1, len(codes)))))
        consistent = sum(1 for i in rho if e.r1_bit(i) == 1)
        adopt = len(rho) >= p.T and consistent >= p.lam * p.T + len(rho) - p.T
        assert cross_check(1, 0, rho, e, p) == (0 if adopt else 1)


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


class TestEngine:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("x_s", [0, 1])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.value)
    def test_rows_do_not_depend_on_their_block(self, cfg, x_s, m):
        # all 6^m Events in one matrix give each row the verdict or
        # out-of-domain reason that row gets alone
        p = ProtocolParams.create("0.3", "0.8", m)
        codes = np.array(list(itertools.product(range(6), repeat=m)), np.int8)
        rows = protocol._run_rows(codes, p, cfg, x_s)
        achieved = protocol._achieved(cfg, x_s, rows.y0, rows.y1)
        for r, row in enumerate(codes.tolist()):
            try:
                t = run_protocol(Event(tuple(row)), p, cfg, x_s=x_s)
            except OutOfDomainError as exc:
                assert rows.ood[r] != 0 and _reason(rows.ood[r], rows.local[r], p) == exc.reason
                continue
            assert rows.ood[r] == 0
            assert achieved[r] == (classify_transcript(cfg, t) is ACH)

    def test_r0_class_table_is_the_where_formula(self):
        # every (code, sigma0) pair in one row, for both sender bits
        codes = np.array([list(range(6)) * 2], np.int8)
        sigma0 = np.array([[False] * 6 + [True] * 6])
        for x_s in (0, 1):
            want = np.where(protocol._R0_BITS[codes] == x_s, 2, np.where(sigma0, 0, 1))
            got = protocol._r0_classes(codes, sigma0, x_s)
            assert got.dtype == np.int8 and got.tolist() == want.tolist()

    def test_blocks_stay_within_the_element_budget(self, monkeypatch):
        shapes = []
        run_rows = protocol._run_rows

        def spy(codes, *args):
            shapes.append(codes.shape)
            return run_rows(codes, *args)

        monkeypatch.setattr(protocol, "_run_rows", spy)
        estimate_pf(AdversaryConfig.R0_FAULTY, ProtocolParams.create("0.272", "0.94", 280), 10_000, seed=1)
        monte_carlo, shapes[:] = shapes[:], []
        pf_bruteforce(AdversaryConfig.S_FAULTY, ProtocolParams.create("0.3", "0.8", 6))
        for blocks, total, m in ((monte_carlo, 10_000, 280), (shapes, 6**6, 6)):
            assert len(blocks) > 1 and sum(n for n, _ in blocks) == total
            assert all(width == m and n * width <= protocol._BLOCK_ELEMENTS for n, width in blocks)


def test_protocol_imports_no_module_built_on_it():
    # adversary, analytics, optimizer and montecarlo import the engine; an
    # import back from protocol would make a cycle
    tree = ast.parse(Path(protocol.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
    assert "source" in imported
    assert not imported & {"adversary", "analytics", "optimizer", "montecarlo"}
