"""Tests for the protocol state machine and outcome classification."""

import ast
import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wbcsim.adversary as adversary
import wbcsim.protocol as protocol
from wbcsim.analytics import failure_reports, pf_bruteforce, pf_S_bounds
from wbcsim.montecarlo import estimate_pf
from wbcsim.optimizer import GridSpec, even_grid
from wbcsim.protocol import (
    ABORT,
    AdversaryConfig,
    Outcome,
    OutOfDomainError,
    ParameterError,
    ProtocolParams,
    classify_broadcast,
    classify_weak_broadcast,
    run_protocol,
    _reason,
)
from wbcsim.security import chernoff_S, in_guaranteed_region
from wbcsim.source import R0_BIT, R1_BIT, S_CLASS, Event, global_counts

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

    @pytest.mark.parametrize(
        "mu,lam,name",
        [(math.nan, "0.8", "mu"), (math.inf, "0.8", "mu"), ("0.3", math.inf, "lambda"), ("0.3", -math.inf, "lambda")],
    )
    def test_non_finite_parameters_are_parameter_errors(self, mu, lam, name):
        # NaN raised "cannot convert NaN to integer ratio" and an infinity OverflowError
        with pytest.raises(ParameterError, match=f"^{name}=.* is not a finite number$"):
            ProtocolParams(mu, lam, 5)

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
        assert Q == T - math.ceil(lam * T) + 1
        assert 1 <= T <= m
        assert 1 <= Q <= T

    def test_create_rejects_unknown_types(self):
        # a non-number that is not text raises Fraction's TypeError, Python's
        # convention for an argument of the wrong type, and not ParameterError
        for call in (
            lambda: ProtocolParams.create(object(), "0.9", 10),
            lambda: even_grid(None, "0.3", 3),
            lambda: GridSpec((None, "0.3", 3), ("0.9", "0.95", 2), [10], 0.05),
            lambda: chernoff_S(None, "0.9", 10),
            lambda: in_guaranteed_region(None, "0.9"),
        ):
            with pytest.raises(TypeError, match="argument should be a string or a Rational instance"):
                call()

    def test_replace_derives_the_thresholds_again(self):
        # replace used to copy T = 4, Q = 1 from m = 12, and the S upper bound read 0.4999999999998898
        p = dataclasses.replace(ProtocolParams.create("0.3", "0.8", 12), m=400)
        assert (p.T, p.Q) == (120, 25) and p == ProtocolParams.create("0.3", "0.8", 400)
        assert pf_S_bounds(p)[1].value == pf_S_bounds(ProtocolParams.create("0.3", "0.8", 400))[1].value == 0.07016581602920753

    def test_thresholds_are_not_arguments(self):
        # ProtocolParams("0.3", "0.8", 12, 4, 2) used to build params with string mu and lambda
        with pytest.raises(TypeError):
            ProtocolParams("0.3", "0.8", 12, 4, 2)
        with pytest.raises(TypeError):
            ProtocolParams("0.3", "0.8", 12, T=4)
        with pytest.raises(TypeError):
            ProtocolParams("0.3", "0.8", 12, Q=2)

    @given(
        st.one_of(
            st.decimals(Decimal("0.001"), Decimal("0.333"), places=3).map(str),
            st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(333_333, 10**6)),
        ),
        st.one_of(
            st.decimals(Decimal("0.501"), Decimal("0.999"), places=3).map(str),
            st.fractions(min_value=Fraction(500_001, 10**6), max_value=Fraction(999_999, 10**6)),
        ),
        st.integers(1, 10**6).flatmap(lambda m: st.sampled_from([m, np.int64(m), np.uint16(min(m, 65535))])),
    )
    def test_every_construction_derives_the_thresholds(self, mu, lam, m):
        p = ProtocolParams(mu, lam, m)
        assert p == ProtocolParams.create(mu, lam, m)
        assert type(p.mu) is type(p.lam) is Fraction and type(p.m) is int
        assert (p.T, p.Q) == protocol._thresholds(Fraction(mu), Fraction(lam), int(m))

    @pytest.mark.parametrize("mu,lam,m", [("0.34", "0.9", 100), ("0.25", "0.5", 100), ("0.25", "0.9", 0), ("0.25", "0.9", 2.5)])
    def test_constructor_checks_the_ranges(self, mu, lam, m):
        with pytest.raises(ParameterError):
            ProtocolParams(mu, lam, m)

    def test_pickle_round_trip(self):
        p = ProtocolParams.create("0.272", "0.94", 280)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert (q.mu, q.lam, q.m, q.T, q.Q) == (Fraction(272, 1000), Fraction(94, 100), 280, 77, 5)


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

    @pytest.mark.parametrize(
        "classify,y_s,y0,y1",
        [
            (classify_weak_broadcast, 1, 1.0, 1),
            (classify_weak_broadcast, True, 1, 1),
            (classify_weak_broadcast, 0, ABORT, np.True_),
            (classify_broadcast, 0, 0, 0.0),
            (classify_broadcast, np.float64(1.0), 1, 1),
            (classify_broadcast, 1, np.int64(2), 1),
        ],
        ids=repr,
    )
    def test_values_must_be_bits_not_bools_or_floats(self, classify, y_s, y0, y1):
        # each of these used to score as if it were the bit it equals
        with pytest.raises(ValueError):
            classify(AdversaryConfig.NO_FAULTY, y_s, y0, y1)

    def test_numpy_int_bits_are_bits(self, params12):
        ones = (np.int64(1),) * 3
        for classify in (classify_weak_broadcast, classify_broadcast):
            assert classify(AdversaryConfig.NO_FAULTY, *ones) is ACH
        e = Event.from_outcomes(["0011", "0110", "1100"] * 4)
        t = run_protocol(e, params12, AdversaryConfig.NO_FAULTY, x_s=np.int64(1))
        assert type(t.x_s) is int and t == run_protocol(e, params12, AdversaryConfig.NO_FAULTY, x_s=1)

    def test_abort_is_one_object(self):
        assert repr(ABORT) == "ABORT"
        assert pickle.loads(pickle.dumps(ABORT)) is ABORT and copy.deepcopy(ABORT) is ABORT
        assert ABORT not in (0, 1) and ABORT != 2


@pytest.fixture
def params12():
    return ProtocolParams.create("0.3", "0.8", 12)


def _mask(indices, m):
    """1-based indices as a one-row word mask."""
    bits = np.zeros((1, 8 * -(-m // 8)), bool)
    bits[0, :m] = np.isin(np.arange(1, m + 1), list(indices))
    return protocol._pack(bits)


def check_row(e, receiver, x, sigma, p):
    """The check phase of receiver "r0" or "r1" on one Event."""
    bits = getattr(protocol._planes(protocol._one_row(e)), receiver)
    return protocol._value(protocol._check(bits, x, _mask(sigma, e.m), p.T)[0])


def cross_check_row(y_tilde1, y01, rho01, e, p):
    """R1's cross-check phase on one Event."""
    r1_bits = protocol._planes(protocol._one_row(e)).r1
    y1 = protocol._cross_check(protocol._code(y_tilde1), protocol._code(y01), _mask(rho01, e.m), r1_bits, p)
    return protocol._value(y1[0])


class TestPhases:
    def test_honest_invocation_collects_matching_indices(self):
        e, p = Event.from_outcomes(["0011", "1100", "0011", "0101"]), ProtocolParams.create("0.3", "0.8", 4)
        t = run_protocol(e, p, AdversaryConfig.NO_FAULTY, x_s=0)
        assert (t.x0, t.x1, t.y_s) == (0, 0, 0)
        assert t.sigma0 == t.sigma1 == frozenset({1, 3})
        assert run_protocol(e, p, AdversaryConfig.NO_FAULTY, x_s=1).sigma0 == frozenset({2})

    def test_check_phase_length_condition(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        assert check_row(e, "r0", 0, frozenset({1, 2, 3}), params12) is ABORT  # |sigma| = 3 < T = 4
        assert check_row(e, "r0", 0, frozenset({1, 2, 3, 4}), params12) == 0

    def test_check_phase_consistency_condition(self, params12):
        # R0 measures 1 on 0011 but 0 on 1100: a 1100 index betrays x = 0
        e = Event.from_outcomes(["0011", "0011", "0011", "1100"] * 3)
        assert check_row(e, "r0", 0, frozenset({1, 2, 3, 4}), params12) is ABORT
        assert check_row(e, "r0", 0, frozenset({1, 2, 3, 5}), params12) == 0
        assert check_row(e, "r1", 1, frozenset({4, 8, 12}), params12) is ABORT  # too short
        e4 = Event.from_outcomes(["1100"] * 12)
        assert check_row(e4, "r1", 1, frozenset({1, 2, 3, 4}), params12) == 1

    def test_cross_check_keeps_value_when_not_confused(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        rho = frozenset({1, 2, 3, 4})
        assert cross_check_row(0, 0, rho, e, params12) == 0
        assert cross_check_row(ABORT, 0, rho, e, params12) is ABORT
        assert cross_check_row(1, ABORT, rho, e, params12) == 1

    def test_cross_check_requires_length(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        assert cross_check_row(1, 0, frozenset({1, 2, 3}), e, params12) == 1

    def test_cross_check_adoption_budget(self, params12):
        # adoption iff fewer than Q = 1 of rho01's indices are inconsistent,
        # for any |rho01| >= T: the budget does not grow with the set
        e = Event.from_outcomes(["0011"] * 6 + ["1100"] * 6)
        consistent4 = frozenset({1, 2, 3, 4})  # R1 reads 1 = 1 - y01 everywhere
        assert cross_check_row(1, 0, consistent4, e, params12) == 0
        one_bad = frozenset({1, 2, 3, 7})
        assert cross_check_row(1, 0, one_bad, e, params12) == 1
        one_bad_longer = frozenset({1, 2, 3, 4, 5, 7})
        assert cross_check_row(1, 0, one_bad_longer, e, params12) == 1

    @given(st.lists(st.integers(0, 5), min_size=4, max_size=12))
    @settings(max_examples=60)
    def test_cross_check_matches_budget_rule(self, codes):
        p = ProtocolParams.create("0.3", "0.8", len(codes))
        e = Event(tuple(codes))
        rho = frozenset(range(1, len(codes) + 1))
        inconsistent = sum(1 for i in rho if e.r1_bit(i) == 0)
        got = cross_check_row(1, 0, rho, e, p)
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
        assert cross_check_row(1, 0, rho, e, p) == (0 if adopt else 1)


class TestRunProtocol:
    def test_event_length_mismatch(self, params12):
        with pytest.raises(ValueError):
            run_protocol(Event.from_outcomes(["0011"] * 3), params12, AdversaryConfig.NO_FAULTY)

    def test_no_faulty_rejects_strategy(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        with pytest.raises(ValueError):
            run_protocol(e, params12, AdversaryConfig.NO_FAULTY, strategy=object())

    @pytest.mark.parametrize("x_s", [2, -1, True, 1.0, np.float64(1.0), np.True_, np.int64(2)], ids=repr)
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.value)
    def test_sender_value_must_be_a_bit(self, params12, cfg, x_s):
        # x_S = 2 used to run to all-ABORT outputs, -1 to outputs of -1, and
        # a faulty R0 with x_S = 2 to an IndexError; True, 1.0 and numpy's
        # float and bool ran as 1
        e = Event.from_outcomes(["0011", "0110", "1100"] * 4)
        with pytest.raises(ValueError, match="the sender's value is a bit"):
            run_protocol(e, params12, cfg, x_s=x_s)
        with pytest.raises(ValueError, match="the sender's value is a bit"):
            adversary.local_counts_R(e, x_s)

    @pytest.mark.parametrize("cfg", ["s-faulty", None])
    def test_configuration_must_be_an_adversary_config(self, params12, cfg):
        # failure_reports used to return R0's bounds for "s-faulty", and the
        # Monte-Carlo, 6^m sums and strategy search said only a faulty party
        # has a strategy view
        e, small = Event.from_outcomes(["0011", "0110", "1100"] * 4), ProtocolParams.create("0.3", "0.8", 3)
        events = next(iter(adversary._events_by_local_list(3, AdversaryConfig.S_FAULTY).values()))
        for call in (
            lambda: run_protocol(e, params12, cfg),
            lambda: classify_weak_broadcast(cfg, 0, 0, 0),
            lambda: failure_reports(cfg, params12),
            lambda: failure_reports(cfg, params12, exact=True),
            lambda: estimate_pf(cfg, params12, 10, 0),
            lambda: pf_bruteforce(cfg, small),
            lambda: adversary.best_failure_probability_bruteforce(cfg, small),
            lambda: adversary.max_conditional_failure(cfg, small, events),
            lambda: adversary.conditional_failure_probability(cfg, small, events, adversary.StrategyS(0, 0, 0, 0, 0, 0)),
        ):
            with pytest.raises(ValueError, match=f"unknown adversary configuration {cfg!r}"):
                call()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_no_faulty_fails_iff_support_below_threshold(self, m):
        p = ProtocolParams.create("0.3", "0.8", m)
        for codes in itertools.product(range(6), repeat=m):
            e = Event(codes)
            t = run_protocol(e, p, AdversaryConfig.NO_FAULTY, x_s=0)
            expected = FAIL if global_counts(e).g[0] < p.T else ACH
            assert classify_weak_broadcast(AdversaryConfig.NO_FAULTY, t.x_s, t.y0, t.y1) is expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("cfg", [AdversaryConfig.NO_FAULTY, AdversaryConfig.R0_FAULTY], ids=lambda c: c.value)
    def test_flip_symmetry(self, cfg, m):
        # Each Event at x_S = 0 and its complement at x_S = 1 get the same
        # verdict, or are out of the strategy domain for the same reason.
        def verdict(e, x_s):
            try:
                t = run_protocol(e, p, cfg, x_s=x_s)
            except OutOfDomainError as exc:
                return exc.reason
            return classify_weak_broadcast(cfg, t.x_s, t.y0, t.y1)

        p = ProtocolParams.create("0.3", "0.8", m)
        for codes in itertools.product(range(6), repeat=m):
            e = Event(codes)
            assert verdict(e, 0) == verdict(e.flipped(), 1)

    def test_no_faulty_success_transcript(self, params12):
        e = Event.from_outcomes(["0011"] * 12)
        t = run_protocol(e, params12, AdversaryConfig.NO_FAULTY, x_s=0)
        assert (t.y_s, t.y0, t.y1) == (0, 0, 0)
        assert t.sigma0 == frozenset(range(1, 13))


class TestEngine:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("x_s", [0, 1])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.value)
    def test_rows_do_not_depend_on_their_block(self, cfg, x_s, m):
        # all 6^m Events in one matrix give each row the verdict or
        # out-of-domain reason that row gets alone
        p = ProtocolParams.create("0.3", "0.8", m)
        codes = np.array(list(itertools.product(range(6), repeat=m)), np.int8)
        view = None if cfg is AdversaryConfig.NO_FAULTY else protocol._view(cfg, codes, x_s)
        rows = protocol._run_rows(codes, p, cfg, x_s, view)
        achieved = protocol._achieved(cfg, x_s, rows.y0, rows.y1)
        for r, row in enumerate(codes.tolist()):
            try:
                t = run_protocol(Event(tuple(row)), p, cfg, x_s=x_s)
            except OutOfDomainError as exc:
                assert rows.ood[r] != 0 and _reason(rows.ood[r], view.sizes[:, r], p) == exc.reason
                continue
            assert rows.ood[r] == 0
            assert achieved[r] == (classify_weak_broadcast(cfg, t.x_s, t.y0, t.y1) is ACH)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("mu,lam", [("0.3", "0.8"), ("0.272", "0.94"), ("0.25", "0.9")])
    @pytest.mark.parametrize("cfg", CONFIGS[1:], ids=lambda c: c.value)
    def test_kernel_weighs_failures_inside_and_outside_the_domain(self, cfg, mu, lam, m):
        # row 0 is the weight of the Events whose transcript fails, row 1 of
        # those run_protocol finds outside the strategy domain
        p = ProtocolParams.create(mu, lam, m)
        got, want = np.zeros(2, np.int64), [0, 0]
        for codes, nums in adversary._event_blocks(m):
            got += protocol._failed_weights(cfg, p, codes, nums)[:, 0]
            for row, num in zip(codes.tolist(), nums.tolist()):
                try:
                    t = run_protocol(Event(tuple(row)), p, cfg)
                except OutOfDomainError:
                    want[1] += num
                    continue
                want[0] += num * (classify_weak_broadcast(cfg, t.x_s, t.y0, t.y1) is FAIL)
        assert got.tolist() == want

    @pytest.mark.parametrize("m", [12, 130], ids=["one-word", "three-words"])
    def test_r0_classes_are_the_where_formula(self, m):
        # every code, repeated along one row of m indices (across word
        # boundaries when m > 64), for both sender bits; the correct sender
        # vouches for the indices where it measured x_S x_S
        codes = (np.arange(m) % 6)[None].astype(np.int8)
        for x_s in (0, 1):
            vouched = codes == 5 * x_s
            want = np.where(np.array(R0_BIT)[codes] == x_s, 2, np.where(vouched, 0, 1))
            view = protocol._view(AdversaryConfig.R0_FAULTY, codes, x_s)
            assert [member.tolist() for member in _classes(view, m)] == [(want == c).tolist() for c in range(3)]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 64),
        m=st.integers(1, 300),
        present=st.sets(st.integers(0, 5), min_size=1),
        cfg=st.sampled_from([AdversaryConfig.S_FAULTY, AdversaryConfig.R0_FAULTY]),
        x_s=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lowest_is_one_cumsum_per_class(self, n, m, present, cfg, x_s, seed):
        # Events drawn from a subset of the six codes, so classes can be
        # empty; every k from 0 to each row's class size
        codes = np.random.default_rng(seed).choice(sorted(present), size=(n, m)).astype(np.int8)
        view = protocol._view(cfg, codes, x_s)
        members = _direct_members(cfg, codes, x_s)
        ranks = [np.cumsum(member, axis=1) for member in members]
        sizes = np.array([member.sum(axis=1) for member in members])
        assert view.sizes.tolist() == sizes.tolist()
        for k in range(int(sizes.max()) + 1):
            ks = np.minimum(k, sizes)
            want = [member & (rank <= kc[:, None]) for member, rank, kc in zip(members, ranks, ks)]
            got = protocol._lowest(view, ks)
            assert got.shape == (n, math.ceil(m / 64))
            assert np.array_equal(protocol._unpack(got, m), np.logical_or.reduce(want))
        # two strategies on every row at once, (3, K, 1) against N rows
        ks = np.stack([np.zeros(3, int), sizes.min(axis=1)], axis=1)[:, :, None]
        both = protocol._lowest(view, ks)
        assert both.shape == (2, n, math.ceil(m / 64))
        for j in range(2):
            assert np.array_equal(both[j], protocol._lowest(view, np.broadcast_to(ks[:, j], (3, n))))

    @settings(max_examples=40, deadline=None)
    @given(
        stack=st.integers(1, 3),
        n=st.integers(1, 64),
        m=st.integers(1, 300),
        density=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_counts_are_count_nonzero_per_row(self, stack, n, m, density, seed):
        # rows padded with zeros to whole bytes, packed into words and
        # counted by popcount
        mask = np.zeros((stack, n, 8 * math.ceil(m / 8)), bool)
        mask[..., :m] = np.random.default_rng(seed).random((stack, n, m)) < density
        words = protocol._pack(mask)
        assert words.shape == (stack, n, math.ceil(m / 64))
        assert np.array_equal(protocol._unpack(words, m), mask[..., :m])
        got = protocol._count(words)
        assert got.shape == (stack, n) and got.tolist() == np.count_nonzero(mask, axis=2).tolist()
        assert protocol._count(words[0]).tolist() == np.count_nonzero(mask[0], axis=1).tolist()

    def test_one_event_past_2_to_the_20(self):
        # the packed fields of earlier engines ran out of int64 bits here;
        # bitplanes have no width limit
        m = 2**20 + 3
        codes = np.random.default_rng(7).integers(0, 6, (1, m)).astype(np.int8)
        view = protocol._view(AdversaryConfig.S_FAULTY, codes)
        members = _direct_members(AdversaryConfig.S_FAULTY, codes, 0)
        sizes = np.array([member.sum(axis=1) for member in members])
        assert view.sizes.tolist() == sizes.tolist()
        ks = np.array([sizes[0] // 3, 0 * sizes[1], sizes[2]])
        want = [member & (np.cumsum(member, axis=1) <= kc[:, None]) for member, kc in zip(members, ks)]
        want = np.logical_or.reduce(want)
        got = protocol._lowest(view, ks)
        assert np.array_equal(protocol._unpack(got, m), want)
        assert protocol._count(got).tolist() == [np.count_nonzero(want)]

    @pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("x_s", [0, 1])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.value)
    def test_rows_at_word_boundaries_match_index_lists(self, cfg, x_s, m):
        # random Events in one block: each row's verdict and out-of-domain
        # reason as a pure-Python run on sorted index lists gives them
        p = ProtocolParams.create("0.3", "0.8", m)
        codes = np.random.default_rng(m + 1000 * x_s).choice(6, size=(60, m), p=[4, 1, 1, 1, 1, 4] / np.float64(12))
        codes = codes.astype(np.int8)
        view = None if cfg is AdversaryConfig.NO_FAULTY else protocol._view(cfg, codes, x_s)
        rows = protocol._run_rows(codes, p, cfg, x_s, view)
        achieved = protocol._achieved(cfg, x_s, rows.y0, rows.y1)
        seen = set()
        for r, row in enumerate(codes.tolist()):
            want = _index_list_run(row, p, cfg, x_s)
            got = _reason(rows.ood[r], view.sizes[:, r], p) if rows.ood[r] else bool(achieved[r])
            assert got == want, r
            seen.add(want)
        assert len(seen) > 1  # the block mixes outcomes

    def test_blocks_stay_within_the_element_budget(self, monkeypatch):
        # every engine call, counted in (strategy, row) pairs, with its rows
        # and the check-set masks it builds per row, and every row the
        # faulty party's view ranks
        pairs, ranked = [], []
        run_rows, view = protocol._run_rows, protocol._view

        def spy_rows(codes, p, cfg, *args):
            rows = run_rows(codes, p, cfg, *args)
            masks = (rows.rho01,) if cfg is AdversaryConfig.R0_FAULTY else (rows.sigma0, rows.sigma1)
            masks = sum(mask[..., 0].size for mask in masks) // len(codes)
            pairs.append((rows.y1.size, codes.shape[1], len(codes), masks))
            return rows

        def spy_view(cfg, codes, *args):
            ranked.append(len(codes))
            return view(cfg, codes, *args)

        monkeypatch.setattr(protocol, "_run_rows", spy_rows)
        for module in (protocol, adversary):
            monkeypatch.setattr(module, "_view", spy_view)
        estimate_pf(AdversaryConfig.R0_FAULTY, ProtocolParams.create("0.272", "0.94", 280), 10_000, seed=1)
        monte_carlo, pairs[:] = pairs[:], []
        pf_bruteforce(AdversaryConfig.S_FAULTY, ProtocolParams.create("0.3", "0.8", 6))
        s_faulty = AdversaryConfig.S_FAULTY
        groups = adversary._events_by_local_list(4, s_faulty)
        oracle, pairs[:], ranked[:] = pairs[:], [], []
        adversary.best_failure_probability_bruteforce(s_faulty, ProtocolParams.create("0.272", "0.94", 4))
        searched = sum(len(codes) * adversary._strategy_ks(s_faulty, key).shape[1] for key, (codes, _) in groups.items())
        for blocks, total, m in ((monte_carlo, 10_000, 280), (oracle, 6**6, 6), (pairs, searched, 4)):
            assert len(blocks) > 1 and sum(n for n, *_ in blocks) == total
            assert all(width == m and rows <= protocol._BLOCK_ROWS for _, width, rows, _ in blocks)
        # Monte-Carlo and oracle blocks: one strategy per row, at most
        # _BLOCK_CODES codes and _BLOCK_ROWS rows
        for n, width, rows, _ in monte_carlo + oracle:
            assert n == rows and n * width <= protocol._BLOCK_CODES
        # a search call holds, per row, each mask's three int64 counts per
        # byte and four words per word, and its pairs' verdicts: in bytes,
        # within the 1 MiB of a block's draws
        for n, width, rows, masks in pairs:
            mask_bytes = 8 * (3 * math.ceil(width / 8) + 4 * math.ceil(width / 64))
            assert rows * masks * mask_bytes + n * protocol._PAIR_BYTES <= 8 * protocol._BLOCK_CODES
        # the search ranks each Event once: the grouping reads the local
        # count lists off the codes' classes, the engine ranks each group
        # once, and the strategies come from each group's local count list
        assert sum(ranked) == 6**4

    @pytest.mark.parametrize("cfg", [AdversaryConfig.S_FAULTY, AdversaryConfig.R0_FAULTY], ids=lambda c: c.value)
    def test_search_calls_hold_at_most_the_block_budget(self, cfg, monkeypatch):
        # what each engine call of the m = 5 search holds, as tracemalloc
        # measures it, stays within the 1 MiB of a Monte-Carlo block's
        # draws; the budget cuts some group into runs of rows
        peaks, run_rows = [], protocol._run_rows

        def spy_rows(codes, *args):
            tracemalloc.start()
            try:
                rows = run_rows(codes, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return rows

        monkeypatch.setattr(protocol, "_run_rows", spy_rows)
        groups = adversary._events_by_local_list(5, cfg)
        adversary.best_failure_probability_bruteforce(cfg, ProtocolParams.create("0.3", "0.8", 5))
        assert max(peaks) <= 8 * protocol._BLOCK_CODES
        assert len(peaks) > len(groups)


def _direct_members(cfg, codes, x_s):
    """The faulty party's class masks of each row, from the class
    definitions: S's by its pair, R0's after the correct sender's check set."""
    if cfg is AdversaryConfig.S_FAULTY:
        cls = np.array(S_CLASS)[codes]
    else:
        cls = np.where(np.array(R0_BIT)[codes] == x_s, 2, np.where(codes == 5 * x_s, 0, 1))
    return [cls == c for c in range(3)]


def _classes(view, m):
    """The view's three class masks, each read back as the lowest all of its members."""
    return [protocol._unpack(protocol._lowest(view, np.eye(3, dtype=int)[c][:, None] * view.sizes), m) for c in range(3)]


def _index_list_run(codes, p, cfg, x_s):
    """One Event's weak broadcast verdict (True when achieved), or its
    out-of-domain reason, from the protocol's rules on sorted lists of
    1-based indices, the faulty party playing zeta_S or zeta_R."""
    indices = range(1, len(codes) + 1)
    r0 = {i: R0_BIT[codes[i - 1]] for i in indices}
    r1 = {i: R1_BIT[codes[i - 1]] for i in indices}
    honest = [i for i in indices if codes[i - 1] == (0 if x_s == 0 else 5)]

    def check(bits, x, sigma):
        return x if len(sigma) >= p.T and all(bits[i] != x for i in sigma) else ABORT

    if cfg is AdversaryConfig.S_FAULTY:
        c0011, mixed, c1100 = ([i for i in indices if S_CLASS[codes[i - 1]] == c] for c in range(3))
        if p.T - p.Q > len(c0011):
            return f"cond1: T-Q={p.T - p.Q} > l1={len(c0011)}"
        if p.Q > len(mixed):
            return f"cond2: Q={p.Q} > l2={len(mixed)}"
        if p.T > len(c1100):
            return f"cond3: T={p.T} > l3={len(c1100)}"
        x0, x1, sigma0, sigma1 = 0, 1, sorted(c0011[: p.T - p.Q] + mixed[: p.Q]), c1100
    else:
        x0 = x1 = x_s
        sigma0 = sigma1 = honest
    y_tilde1 = check(r1, x1, sigma1)
    if cfg is AdversaryConfig.R0_FAULTY:
        xx0x = [i for i in indices if r0[i] == x_s]
        c0011 = [i for i in honest if r0[i] != x_s]
        xx10 = [i for i in indices if r0[i] != x_s and i not in honest]
        if len(c0011) > p.m - p.T:
            return f"l1={len(c0011)} > m-T={p.m - p.T}"
        y0 = y01 = 1 - x_s
        rho01 = sorted(xx10 + xx0x[: max(0, p.T - len(xx10))])
    else:
        y0 = check(r0, x0, sigma0)
        y01, rho01 = y0, sigma0
    confused = y_tilde1 is not ABORT and y01 is not ABORT and y_tilde1 != y01
    inconsistent = sum(r1[i] == y01 for i in rho01)
    y1 = y01 if confused and len(rho01) >= p.T and inconsistent < p.Q else y_tilde1
    if cfg is AdversaryConfig.NO_FAULTY:
        return y0 == x_s and y1 == x_s
    if cfg is AdversaryConfig.S_FAULTY:
        return y0 is ABORT or y1 is ABORT or y0 == y1
    return y1 == x_s


def names_in(path: Path) -> set[str]:
    """Every name, attribute and from-imported name a module's source uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_only_protocol_runs_the_engine():
    # every failure probability goes through protocol._failed_weights, so
    # no second loop over engine blocks grows elsewhere
    for path in Path(protocol.__file__).parent.glob("*.py"):
        assert ("_run_rows" in names_in(path)) == (path.name == "protocol.py"), path.name


def test_analytics_owns_the_formula_block_budget():
    # the optimizer hands the formulas fixed runs of m and leaves cutting
    # rows into formula blocks to analytics._certified
    names = names_in(Path(protocol.__file__).parent / "optimizer.py")
    assert "_RUN" in names and not names & {"_rows_per_block", "_FORMULA_ENTRIES", "_row_width"}


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
