"""Tests for the analytic failure probability formulas."""

import math
from fractions import Fraction

import numpy as np
import pytest

from wbcsim.analytics import (
    _EXACT,
    _FLOAT,
    BoundKind,
    FailureReport,
    _report_rows,
    _tail,
    failure_reports,
    pf_bruteforce,
    pf_no_faulty_exact,
    pf_R_bounds,
    pf_S_bounds,
)
from wbcsim.protocol import AdversaryConfig, ProtocolParams
from wbcsim.security import chernoff_R, chernoff_S

NO_FAULTY = AdversaryConfig.NO_FAULTY
S_FAULTY = AdversaryConfig.S_FAULTY
R0_FAULTY = AdversaryConfig.R0_FAULTY


def params(mu, lam, m):
    return ProtocolParams.create(mu, lam, m)


def all_reports(p, exact):
    return [pf_no_faulty_exact(p, exact), *pf_S_bounds(p, exact), *pf_R_bounds(p, exact)]


class TestNoFaulty:
    @pytest.mark.parametrize("m,expected", [(1, Fraction(2, 3)), (2, Fraction(4, 9))])
    def test_small_m_exact(self, m, expected):
        assert pf_no_faulty_exact(params("0.3", "0.8", m), exact=True).value == expected

    def test_float_matches_exact(self):
        p = params("0.272", "0.94", 60)
        exact = pf_no_faulty_exact(p, exact=True).value
        assert math.isclose(pf_no_faulty_exact(p).value, float(exact), rel_tol=1e-12)

    def test_kind_is_exact(self):
        report = pf_no_faulty_exact(params("0.3", "0.8", 5))
        assert report.kind is BoundKind.EXACT and report.config is NO_FAULTY


class TestBounds:
    @pytest.mark.parametrize("fn,cfg", [(pf_S_bounds, S_FAULTY), (pf_R_bounds, R0_FAULTY)])
    def test_lower_at_most_upper(self, fn, cfg):
        for m in (5, 30, 120):
            lo, hi = fn(params("0.272", "0.94", m))
            assert lo.config is cfg and lo.kind is BoundKind.LOWER and hi.kind is BoundKind.UPPER
            assert 0 <= lo.value <= hi.value <= 1

    @pytest.mark.parametrize("fn", [pf_S_bounds, pf_R_bounds])
    def test_float_matches_exact_backend(self, fn):
        p = params("0.272", "0.94", 30)
        lo_q, hi_q = fn(p, exact=True)
        lo_f, hi_f = fn(p)
        assert math.isclose(lo_f.value, float(lo_q.value), rel_tol=1e-11)
        assert math.isclose(hi_f.value, float(hi_q.value), rel_tol=1e-11)

    def test_upper_bounds_shrink_with_m(self):
        values = [max(pf_S_bounds(params("0.272", "0.94", m))[1].value, pf_R_bounds(params("0.272", "0.94", m))[1].value) for m in (100, 200, 300)]
        assert values[0] > values[1] > values[2]

    def test_first_crossings_below_five_percent(self):
        # the three per-configuration resource requirements
        assert pf_no_faulty_exact(params("0.272", "0.94", 143)).value < 0.05
        assert pf_no_faulty_exact(params("0.272", "0.94", 142)).value >= 0.05
        assert pf_S_bounds(params("0.272", "0.94", 246))[1].value < 0.05
        assert pf_S_bounds(params("0.272", "0.94", 245))[1].value >= 0.05
        assert pf_R_bounds(params("0.272", "0.94", 280))[1].value < 0.05
        assert pf_R_bounds(params("0.272", "0.94", 279))[1].value >= 0.05


class TestFloatBackendRange:
    @pytest.mark.parametrize("m", [280, 400, 1000])
    def test_every_bound_matches_exact(self, m):
        p = params("0.272", "0.94", m)
        for exact, approx in zip(all_reports(p, exact=True), all_reports(p, exact=False)):
            assert isinstance(approx.value, float)
            assert math.isclose(approx.value, float(exact.value), rel_tol=1e-12)

    @pytest.mark.parametrize("m", [4000, 10000])
    @pytest.mark.parametrize("fn,chernoff", [(pf_S_bounds, chernoff_S), (pf_R_bounds, chernoff_R)])
    def test_large_m_bounds_are_ordered(self, m, fn, chernoff):
        lo, hi = fn(params("0.272", "0.94", m))
        assert 0 <= lo.value <= hi.value <= chernoff("0.272", "0.94", m)

    @pytest.mark.parametrize("m", [1000, 10000])
    def test_bound_within_rounding_of_one_stays_a_probability(self, m):
        # outside the security region the R0 bound is 1 up to float rounding,
        # which must not push it above 1
        lo, hi = pf_R_bounds(params("0.1", "0.6", m))
        assert lo.value <= hi.value <= 1 and math.isclose(lo.value, 1.0, rel_tol=1e-9)

    def test_s_upper_at_m_4000_matches_reference(self):
        # Computed once offline in 50-digit mpmath (mp.dps = 50): the sum over
        # l3 of binomial(m, l3) (1/3)^l3 (2/3)^(m-l3) times the two l1 tails
        # given l3, each as a regularized incomplete beta (mpmath.betainc),
        # plus the two l3 tails and dom * 2^-Q; T = 1088, Q = 66. The exact
        # rational backend agrees with it to 48 significant digits.
        reference = 2.4690045616747304498503102398965390179612088754897e-17
        upper = pf_S_bounds(params("0.272", "0.94", 4000))[1].value
        # the float pmf's relative error grows like 1e-15 * m (gammaln rounding)
        assert math.isclose(upper, reference, rel_tol=1e-11)


class TestBoundTable:
    @pytest.mark.parametrize(
        "mu,lam,m_large", [("0.272", "0.94", 331), ("0.3", "0.8", 400), ("0.25", "0.9", 367), ("0.1", "0.6", 293)]
    )
    def test_block_matches_exact_backend(self, mu, lam, m_large):
        # one block whose rows differ in width, against each row's exact rationals
        ps = [params(mu, lam, m) for m in (*range(1, 13), 25, 50, 100, 200, m_large)]
        for cfg in AdversaryConfig:
            table = _report_rows(cfg, [(p.m, p.T, p.Q) for p in ps])
            for i, p in enumerate(ps):
                for exact in failure_reports(cfg, p, exact=True):
                    assert math.isclose(table[exact.kind][i], float(exact.value), rel_tol=1e-11), (cfg, p.m, exact.kind)


def element_wise_tail(k, n, q, valid, upper):
    """The fixed-k tail with each element summed on its own by the exact
    cdf/sf (n < 0 counts as 0): the reference for the recurrence."""
    tail = _EXACT.sf if upper else _EXACT.cdf
    return np.where(valid, tail(k[:, None], np.maximum(n, 0), q), 0)


# (k, first n, last valid n) per row, as the bound formulas build them
TAIL_ROWS = {
    # rows of different widths, one of them empty (the S rows when m < 2T - 1),
    # one with k above every n
    "widths": [(2, 3, 10), (0, 5, 6), (7, 8, 20), (1, 1, 1), (3, 6, 4), (6, 1, 3)],
    # k = -1: the S tail at T - Q - 1 when T = Q
    "k_minus_one": [(-1, 1, 9), (-1, 4, 4), (0, 2, 7)],
    # the lucky tail: its trial count T - l2 starts at 2T - m, which can be <= 0
    "lucky": [(0, -4, 3), (2, -1, 5), (-1, 0, 2), (3, -6, 9)],
}


class TestTail:
    @staticmethod
    def rows(name):
        k, first, last = map(np.array, zip(*TAIL_ROWS[name]))
        n = first[:, None] + np.arange(max(1, (last - first + 1).max()))
        return k, n, n <= last[:, None]

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)])
    @pytest.mark.parametrize("name", sorted(TAIL_ROWS))
    def test_recurrence_is_the_element_wise_tail(self, name, q, upper):
        k, n, valid = self.rows(name)
        if upper:
            n = n - min(0, n.min())  # the upper tails' n runs over T..m
        want = element_wise_tail(k, n, q, valid, upper)
        got = _tail(_EXACT, k, n, q, valid, upper)
        assert got.shape == want.shape
        assert all(isinstance(g, Fraction) for g in got[valid])
        assert all(g == w for g, w in zip(got.flat, want.flat))
        approx = _tail(_FLOAT, k, n, q, valid, upper)
        assert approx.dtype == np.float64
        assert np.allclose(approx, want.astype(float), rtol=1e-14, atol=0)


class TestBruteForceOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_no_faulty_equivalence(self, m):
        p = params("0.272", "0.94", m)
        assert pf_bruteforce(NO_FAULTY, p).value == pf_no_faulty_exact(p, exact=True).value

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", [BoundKind.LOWER, BoundKind.UPPER])
    def test_faulty_equivalence(self, m, kind):
        p = params("0.272", "0.94", m)
        idx = 0 if kind is BoundKind.LOWER else 1
        assert pf_bruteforce(S_FAULTY, p, kind).value == pf_S_bounds(p, exact=True)[idx].value
        assert pf_bruteforce(R0_FAULTY, p, kind).value == pf_R_bounds(p, exact=True)[idx].value

    def test_rejects_large_m(self):
        with pytest.raises(ValueError):
            pf_bruteforce(NO_FAULTY, params("0.272", "0.94", 9))

    def test_rejects_exact_kind_for_faulty(self):
        with pytest.raises(ValueError):
            pf_bruteforce(S_FAULTY, params("0.3", "0.8", 2), BoundKind.EXACT)

    def test_string_kind_is_its_bound_kind(self):
        # "upper" used to score as LOWER: 2/27, labelled upper
        p = params("0.3", "0.8", 4)
        upper = pf_bruteforce(S_FAULTY, p, "upper")
        assert upper == pf_bruteforce(S_FAULTY, p, BoundKind.UPPER)
        assert upper.kind is BoundKind.UPPER and upper.value == Fraction(25, 27)
        assert pf_bruteforce(S_FAULTY, p, "lower").value == Fraction(2, 27)

    @pytest.mark.parametrize("kind", ["exact", "UPPER", "tight"])
    def test_rejects_exact_or_unknown_kind_strings(self, kind):
        # "exact" on a faulty config used to return the LOWER value
        with pytest.raises(ValueError):
            pf_bruteforce(S_FAULTY, params("0.3", "0.8", 2), kind)


class TestFailureReport:
    def test_rejects_out_of_range_values(self):
        p = params("0.3", "0.8", 2)
        with pytest.raises(ValueError):
            FailureReport(NO_FAULTY, BoundKind.EXACT, 1.5, p)

    def test_dispatch(self):
        p = params("0.272", "0.94", 20)
        assert failure_reports(NO_FAULTY, p) == (pf_no_faulty_exact(p),)
        assert failure_reports(S_FAULTY, p) == pf_S_bounds(p)
        assert failure_reports(R0_FAULTY, p, exact=True) == pf_R_bounds(p, exact=True)
        kinds = [tuple(r.kind for r in failure_reports(cfg, p)) for cfg in AdversaryConfig]
        assert kinds == [(BoundKind.EXACT,), (BoundKind.LOWER, BoundKind.UPPER), (BoundKind.LOWER, BoundKind.UPPER)]
