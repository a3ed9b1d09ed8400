"""Tests for the analytic failure probability formulas."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wbcsim.analytics as analytics
from wbcsim.analytics import (
    _EXACT,
    _FLOAT,
    _THIRD,
    _Z0,
    BoundKind,
    FailureReport,
    _certified,
    _power,
    _r_rows,
    _report_rows,
    _row_width,
    _s_rows,
    _Smooth,
    _tail,
    _window,
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


def fractions(values):
    """An exact backend array as an object array of Fractions."""
    denominator = _power(values.e)
    return np.array([Fraction(v, denominator) for v in values.num.flat], dtype=object).reshape(values.num.shape)


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


# the (mu, lambda) pairs of the float-vs-exact checks: two in the region
# interior, two at its edge and two outside it
WINDOW_PAIRS = [("0.272", "0.94"), ("0.3", "0.8"), ("0.25", "0.9"), ("0.1", "0.6"), ("0.26", "0.94"), ("0.30", "0.95")]
FORMULAS = [_s_rows, _r_rows]


def block(mu, lam, ms):
    """(N, 3) integer (m, T, Q) rows at one (mu, lambda)."""
    return np.array([(p.m, p.T, p.Q) for p in (params(mu, lam, m) for m in ms)])


def assert_windowed_matches_whole_rows(mu, lam, ms):
    """Windowed and whole float rows are two float sums of the same terms,
    each within about 1e-15 * m relative of the exact value (README), so
    they may differ by twice that; what a window leaves out is below
    1e-17 of each bound."""
    rows = block(mu, lam, ms)
    for formula in FORMULAS:
        for windowed, whole in zip(_certified(formula, *rows.T), formula(*rows.T, _FLOAT)):
            assert np.all(np.abs(windowed - whole) <= 2e-15 * rows[:, 0] * whole), (mu, lam, formula.__name__)


class TestBlockPartitions:
    @settings(max_examples=40, deadline=None)
    @given(
        pair=st.sampled_from(WINDOW_PAIRS),
        ms=st.lists(st.integers(1, 2500), min_size=1, max_size=10, unique=True).map(sorted),
        cuts=st.sets(st.integers(1, 9)),
    )
    def test_float_values_do_not_depend_on_the_block(self, pair, ms, cuts):
        # a float bound is a function of its (m, T, Q) row alone: any cut of
        # an ascending row list into blocks gives the bits of one-row calls
        rows = block(*pair, ms)
        parts = np.split(rows, sorted(c for c in cuts if c < len(rows)))
        for cfg in AdversaryConfig:
            blocked = [_report_rows(cfg, part) for part in parts]
            alone = [_report_rows(cfg, row[None]) for row in rows]
            for kind in blocked[0]:
                joined = np.concatenate([values[kind] for values in blocked])
                assert joined.tobytes() == np.concatenate([values[kind] for values in alone]).tobytes(), (cfg, kind)


    def test_rows_of_one_m_and_different_thresholds_share_a_block(self):
        # a block is as wide as its widest row, so a row with a larger T runs
        # past its m; those padded entries must stay finite and masked
        rows = np.concatenate([block(mu, "0.501", (31, 63)) for mu in ("0.15", "0.194", "0.33")])
        assert rows[:, 1].tolist() == [5, 10, 7, 13, 11, 21]
        for cfg in AdversaryConfig:
            blocked = _report_rows(cfg, rows)
            alone = [_report_rows(cfg, row[None]) for row in rows]
            for kind in blocked:
                assert blocked[kind].tobytes() == np.concatenate([values[kind] for values in alone]).tobytes(), (cfg, kind)

    @settings(max_examples=25, deadline=None)
    @given(pair=st.sampled_from(WINDOW_PAIRS), ms=st.lists(st.integers(1, 80), min_size=2, max_size=8, unique=True))
    def test_exact_values_do_not_depend_on_the_block(self, pair, ms):
        # rows of different widths share one array and one denominator in a
        # block; each row's value is the Fraction of its one-row call
        rows = block(*pair, ms)
        for cfg in AdversaryConfig:
            blocked = _report_rows(cfg, rows, exact=True)
            for i, row in enumerate(rows):
                for kind, values in _report_rows(cfg, row[None], exact=True).items():
                    assert [fractions(blocked[kind])[i]] == values.tolist(), (cfg, kind, row)

    def test_windowed_float_values_do_not_depend_on_the_block(self, monkeypatch):
        # past m = 400 rows are cut to windows; at (0.25, 0.9) and m >= 8000
        # the S rows' first windows leave out too much and are widened
        widened = []
        s_rows = analytics._s_rows

        def spy(m, T, Q, b, z=None):
            widened.extend(m.tolist() if z is not None and z > _Z0 else [])
            return s_rows(m, T, Q, b, z)

        monkeypatch.setattr(analytics, "_s_rows", spy)
        rows = np.concatenate([block(mu, lam, (4000, 8000, 10000, 12000)) for mu, lam in (("0.272", "0.94"), ("0.25", "0.9"))])
        for cfg in (S_FAULTY, R0_FAULTY):
            blocked = _report_rows(cfg, rows)
            for i, row in enumerate(rows):
                for kind, values in _report_rows(cfg, row[None]).items():
                    assert values.tobytes() == blocked[kind][i : i + 1].tobytes(), (cfg, kind, row)
        assert sorted(set(widened)) == [8000, 10000, 12000]


def assert_upper_not_below_no_faulty(rows, exact=False):
    """On each row, the S and R0 UPPER are at least the no-faulty value
    (plain `>=`): the m scan skips both faulty formulas on the rows where
    no-faulty is not below its target."""
    values = {cfg: [*_report_rows(cfg, rows, exact).values()][-1] for cfg in AdversaryConfig}
    if exact:
        values = {cfg: fractions(v) for cfg, v in values.items()}
    for cfg in (S_FAULTY, R0_FAULTY):
        kept = np.array(values[cfg] >= values[NO_FAULTY], dtype=bool)
        assert kept.all(), (cfg, rows[~kept])


# (mu, lambda) across the protocol's range, inside the guaranteed region or not
protocol_pairs = st.tuples(
    st.integers(1, 333).map(lambda i: Fraction(i, 1000)), st.integers(501, 999).map(lambda i: Fraction(i, 1000))
)


class TestUpperDominatesNoFaulty:
    @settings(max_examples=40, deadline=None)
    @given(pair=protocol_pairs, ms=st.lists(st.integers(1, 400), min_size=1, max_size=12, unique=True).map(sorted))
    def test_whole_rows(self, pair, ms):
        assert_upper_not_below_no_faulty(block(*pair, ms))

    # (0.25, 0.9) at m >= 8000 widens its S windows
    @settings(max_examples=25, deadline=None)
    @given(pair=protocol_pairs, ms=st.lists(st.integers(401, 12000), min_size=1, max_size=4, unique=True).map(sorted))
    @example(pair=(Fraction("0.25"), Fraction("0.9")), ms=[8000, 10000, 12000])
    def test_windowed_and_widened_rows(self, pair, ms):
        assert_upper_not_below_no_faulty(block(*pair, ms))

    @pytest.mark.parametrize("pair,ms", [(("0.01", "0.9"), [180, 182, 183]), (("0.25", "0.51"), [304, 308, 311])])
    def test_rows_capped_at_one(self, pair, ms):
        rows = block(*pair, ms)
        assert np.all(_r_rows(*rows.T, _FLOAT)[1] > 1)  # the float sum rounds above 1 and is capped
        assert np.all(_report_rows(R0_FAULTY, rows)[BoundKind.UPPER] == 1)
        assert_upper_not_below_no_faulty(rows)

    @settings(max_examples=25, deadline=None)
    @given(pair=protocol_pairs, ms=st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True).map(sorted))
    def test_exact_rows(self, pair, ms):
        assert_upper_not_below_no_faulty(block(*pair, ms), exact=True)


class TestWindows:
    @pytest.mark.parametrize("mu,lam", WINDOW_PAIRS)
    def test_rows_up_to_m_400_are_whole(self, mu, lam):
        # a window keeps 400 entries on each side of the mode: below that the
        # bits are those of the whole row, and nothing is left out; only
        # `_certified` caps at 1 (at (0.1, 0.6) a float sum rounds above it)
        rows = block(mu, lam, range(1, 401))
        for formula in FORMULAS:
            whole = formula(*rows.T, _FLOAT)
            windowed = formula(*rows.T, _FLOAT, np.full(len(rows), _Z0))
            assert all(np.array_equal(w, v) for w, v in zip(windowed[:2], whole[:2]))
            assert not windowed[2].any() and not windowed[3].any()
            assert all(np.array_equal(w, v) for w, v in zip(_certified(formula, *rows.T), np.minimum(whole[:2], 1)))

    @pytest.mark.parametrize("mu,lam", WINDOW_PAIRS)
    def test_large_m_windows_match_whole_rows(self, mu, lam):
        assert_windowed_matches_whole_rows(mu, lam, (401, 1000, 2500, 5000, 10000, 15000))

    @pytest.mark.slow
    @pytest.mark.parametrize("mu,lam", WINDOW_PAIRS)
    def test_windows_match_whole_rows_every_500th_m(self, mu, lam):
        assert_windowed_matches_whole_rows(mu, lam, range(500, 15001, 500))

    @pytest.mark.parametrize("m", [401, 1000, 2000, 10000, 15000])
    def test_first_windows_fit_the_row_width(self, m):
        for mu, lam in WINDOW_PAIRS:
            (m_, T, Q), z = block(mu, lam, [m]).T, np.array([_Z0])
            for lo, hi, q in ((T, m_ - T, _THIRD), (T, m_, analytics._SIXTH)):
                _, valid, _ = _window(_FLOAT, m_, lo, hi, q, z)
                assert valid.sum() <= _row_width(m)
        # O(sqrt(m)) at large m: at m = 10^4 about a third of the whole rows
        assert _row_width(10000) < 2000 < 10000 - 2 * 2720 + 1

    def test_certificate_bounds_what_a_window_leaves_out(self, monkeypatch):
        # narrow windows leave out mass far above float rounding; each bound
        # moves by at most its certificate, LOWER down and UPPER up
        monkeypatch.setattr(analytics, "_MIN_HALF_WIDTH", 0)
        for mu, lam in (("0.272", "0.94"), ("0.1", "0.6")):
            rows = block(mu, lam, (150, 300))
            for formula in FORMULAS:
                exact = [fractions(values).astype(float) for values in formula(*rows.T, _EXACT)[:2]]
                tol = 1e-12 * np.maximum(exact[0], exact[1])  # float rounding at m <= 300
                for z in (1.0, 3.0, 6.0):
                    lower, upper, lower_cert, upper_cert = formula(*rows.T, _FLOAT, np.full(len(rows), z))
                    assert (upper_cert > 0).all()
                    assert np.all(lower <= exact[0] + tol) and np.all(exact[0] - lower <= lower_cert + tol)
                    assert np.all(upper >= exact[1] - tol) and np.all(upper - exact[1] <= upper_cert + tol)

    def test_short_windows_widen(self, monkeypatch):
        # a first window that certifies nothing is widened until it does
        monkeypatch.setattr(analytics, "_Z0", 1.0)
        monkeypatch.setattr(analytics, "_MIN_HALF_WIDTH", 0)
        rows = block("0.272", "0.94", (2000, 4000))
        for formula in FORMULAS:
            for windowed, whole in zip(_certified(formula, *rows.T), formula(*rows.T, _FLOAT)):
                assert np.all(np.abs(windowed - whole) <= 2e-15 * rows[:, 0] * whole)

    @pytest.mark.parametrize(
        "mu,lam,m",
        [
            pytest.param("0.272", "0.94", 2000, id="2000"),
            pytest.param("0.272", "0.94", 4000, id="4000"),
            pytest.param("0.272", "0.94", 8000, id="8000", marks=pytest.mark.slow),
            pytest.param("0.272", "0.94", 12000, id="12000", marks=pytest.mark.slow),
            pytest.param("0.3", "0.8", 2000, id="0.3-0.8-2000"),
            pytest.param("0.3", "0.8", 4000, id="0.3-0.8-4000"),
            pytest.param("0.3", "0.8", 8000, id="0.3-0.8-8000", marks=pytest.mark.slow),
            pytest.param("0.3", "0.8", 12000, id="0.3-0.8-12000", marks=pytest.mark.slow),
        ],
    )
    def test_windowed_bounds_bracket_the_exact_backend(self, mu, lam, m):
        # UPPER never below, LOWER never above the exact rationals, beyond float rounding
        p = params(mu, lam, m)
        tol = 2e-15 * m
        for cfg in (S_FAULTY, R0_FAULTY):
            lower, upper = (v[0] for v in _report_rows(cfg, [(p.m, p.T, p.Q)]).values())
            exact_lower, exact_upper = (float(r.value) for r in failure_reports(cfg, p, exact=True))
            assert exact_lower * (1 - tol) <= lower <= exact_lower * (1 + tol), (cfg, m)
            assert exact_upper * (1 - tol) <= upper <= exact_upper * (1 + tol), (cfg, m)


def element_wise_tail(k, n, q, valid, upper):
    """The fixed-k tail with each element summed on its own from math.comb
    in Fractions (n < 0 counts as 0): the reference for the recurrence."""

    def tail(k, n):
        n = max(n, 0)
        ks = range(max(k + 1, 0), n + 1) if upper else range(min(k, n) + 1)
        return sum((math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in ks), Fraction(0))

    rows = zip(k.tolist(), n.tolist(), valid.tolist())
    return np.array([[tail(k_, n_) if v else Fraction(0) for n_, v in zip(ns, vs)] for k_, ns, vs in rows], dtype=object)


# (k, first n, last valid n) per row, as the bound formulas build them
TAIL_ROWS = {
    # rows of different widths, one of them empty (the S rows when m < 2T - 1),
    # one with k above every n
    "widths": [(2, 3, 10), (0, 5, 6), (7, 8, 20), (1, 1, 1), (3, 6, 4), (6, 1, 3)],
    # k = -1: the S tail at T - Q - 1 when T = Q
    "k_minus_one": [(-1, 1, 9), (-1, 4, 4), (0, 2, 7)],
    # the lucky tail: its trial count T - l2 starts at 2T - m, which can be <= 0
    "lucky": [(0, -4, 3), (2, -1, 5), (-1, 0, 2), (3, -6, 9)],
    # a window of the lucky tail can end below 0, so its cdf anchor reads n < 0
    "lucky_window": [(0, -9, -3), (2, -3, -1), (1, -2, 4), (-1, -5, -5)],
}


class TestTail:
    @staticmethod
    def rows(name):
        k, first, last = map(np.array, zip(*TAIL_ROWS[name]))
        n = first[:, None] + np.arange(max(1, (last - first + 1).max()))
        return k, n, n <= last[:, None]

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("q", [analytics._HALF, analytics._TWO_FIFTHS, _THIRD])
    @pytest.mark.parametrize("name", sorted(TAIL_ROWS))
    def test_recurrence_is_the_element_wise_tail(self, name, q, upper):
        k, n, valid = self.rows(name)
        if upper:
            n = n - min(0, n.min())  # the upper tails' n runs over T..m
        want = element_wise_tail(k, n, q, valid, upper)
        (got,) = map(fractions, _tail(_EXACT, (k,), n, q, valid, upper))
        assert got.shape == want.shape
        assert all(isinstance(g, Fraction) for g in got[valid])
        assert all(g == w for g, w in zip(got.flat, want.flat))
        (approx,) = _tail(_FLOAT, (k,), n, q, valid, upper)
        assert approx.dtype == np.float64
        assert np.allclose(approx, want.astype(float), rtol=1e-14, atol=0)


# sha256 of str() of every exact report, one per line, at m = 1..60 for four
# (mu, lambda) pairs and at m = 280, 400 and 1000 for (0.272, 0.94): the
# values the Fraction-per-element backend computed before integer numerators
# over one denominator per array replaced it
EXACT_REPORTS_SHA256 = "d32bc3eafdd9b37482686c7a67108ca46fb3a7517b691bd76ae708ffa9c48477"


@st.composite
def smooth_arrays(draw, shape):
    """A _Smooth array of the shape, numerators over 2^a 3^b 5^c, and the
    same values as Fractions."""
    size = math.prod(shape)
    num = np.array(draw(st.lists(st.integers(-(10**12), 10**12), min_size=size, max_size=size)), dtype=object)
    values = _Smooth(num.reshape(shape), draw(st.tuples(*[st.integers(0, 40)] * 3)))
    return values, fractions(values)


class TestFloatPmf:
    @pytest.mark.parametrize("q", [analytics._HALF, analytics._TWO_FIFTHS, _THIRD, analytics._SIXTH])
    def test_matches_math_comb_and_is_zero_outside_or_below_the_smallest_float(self, q):
        k = np.arange(-3, 1200)[:, None]
        n = np.array([[-2, 0, 1, 7, 50, 400, 1100]])
        got = analytics._float_pmf(k, n, q)
        # any table larger than every |k| and |n| gives the same bits
        assert got.tobytes() == analytics._float_pmf(k, n, q, analytics._log_factorials(1 << 14)).tobytes()
        for (i, j), value in np.ndenumerate(got):
            k_, n_ = int(k[i, 0]), int(n[0, j])
            want = math.comb(n_, k_) * q**k_ * (1 - q) ** (n_ - k_) if 0 <= k_ <= n_ else Fraction(0)
            if want < Fraction(1, 2**1074):  # 0 outside, and where exp of the log sum underflows
                assert value == 0 or want >= Fraction(1, 2**1076), (k_, n_)
            else:
                assert abs(value - want) <= 1e-14 * n_ * want, (k_, n_)  # the log-factorials' rounding


class TestExactBackend:
    def test_exact_reports_are_pinned(self):
        cases = [(mu, lam, m) for mu, lam in (("0.3", "0.8"), ("0.272", "0.94"), ("0.25", "0.9"), ("0.1", "0.6")) for m in range(1, 61)]
        cases += [("0.272", "0.94", m) for m in (280, 400, 1000)]
        digest, count = hashlib.sha256(), 0
        for mu, lam, m in cases:
            for cfg in AdversaryConfig:
                for report in failure_reports(cfg, params(mu, lam, m), exact=True):
                    assert isinstance(report.value, Fraction)
                    digest.update(f"{report}\n".encode())
                    count += 1
        assert count == 1215 and digest.hexdigest() == EXACT_REPORTS_SHA256

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 5))
    def test_operations_match_fraction_arrays(self, data, rows, cols):
        # mixed shapes broadcast as the formulas' (N, 1) and (N, L) operands do
        x, fx = data.draw(smooth_arrays((rows, cols)))
        y, fy = data.draw(smooth_arrays(data.draw(st.sampled_from([(rows, cols), (rows, 1), (1, cols), ()]))))
        condition = np.array(data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        p = np.array(data.draw(st.lists(st.integers(0, 6), min_size=cols, max_size=cols)))
        for got, want in (
            (x + y, fx + fy),
            (y + x, fy + fx),
            (x - y, fx - fy),
            (y - x, fy - fx),
            (x * y, fx * fy),
            (y * x, fy * fx),
            (1 - x, 1 - fx),
            (x + 0, fx + 0),
            (0 * x, 0 * fx),
            (x * condition, fx * condition),
            (condition * x, condition * fx),
            (x.cumsum(axis=1), fx.cumsum(axis=1)),
            (x[:1, :1] ** p, fx[:1, :1] ** p),
            (x[:, ::-1], fx[:, ::-1]),
            (x[np.arange(rows), cols - 1], fx[np.arange(rows), cols - 1]),
        ):
            assert got.num.shape == np.shape(want) and all(g == w for g, w in zip(fractions(got).flat, np.ravel(want)))
        # item assignment of values over other exponents, as `_tail` sets its anchors
        column, z, fz = data.draw(st.integers(0, cols - 1)), *data.draw(smooth_arrays((rows,)))
        x[:, column], fx[:, column] = z, fz
        assert all(g == w for g, w in zip(fractions(x).flat, fx.flat))

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=6), st.sampled_from([analytics._HALF, _THIRD, analytics._SIXTH, analytics._TWO_FIFTHS]))
    def test_powers_match_fractions(self, q_exponents, q):
        got = fractions(_EXACT.scalar(q) ** np.array(q_exponents))
        assert list(got) == [q**p for p in q_exponents]


class TestBruteForceOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("cfg", [NO_FAULTY, S_FAULTY, R0_FAULTY], ids=lambda c: c.value)
    def test_equals_the_exact_reports(self, cfg, m):
        p = params("0.272", "0.94", m)
        assert pf_bruteforce(cfg, p) == failure_reports(cfg, p, exact=True)

    def test_rejects_large_m(self):
        for cfg in (NO_FAULTY, S_FAULTY, R0_FAULTY):
            with pytest.raises(ValueError, match="limited to m <= 8"):
                pf_bruteforce(cfg, params("0.272", "0.94", 9))

    def test_one_call_returns_each_bound_under_its_kind(self):
        # a kind switch used to score "upper" as LOWER (2/27, labelled
        # upper) and "exact" on a faulty configuration as LOWER
        p = params("0.3", "0.8", 4)
        lower, upper = pf_bruteforce(S_FAULTY, p)
        assert (lower.kind, lower.value) == (BoundKind.LOWER, Fraction(2, 27))
        assert (upper.kind, upper.value) == (BoundKind.UPPER, Fraction(25, 27))
        [exact] = pf_bruteforce(NO_FAULTY, p)
        assert (exact.kind, exact.value) == (BoundKind.EXACT, Fraction(16, 27))

    @pytest.mark.parametrize("cfg", [NO_FAULTY, S_FAULTY, R0_FAULTY], ids=lambda c: c.value)
    def test_every_report_comes_from_one_enumeration(self, monkeypatch, cfg):
        passes, event_blocks = [], analytics._event_blocks

        def spy(m):
            passes.append(m)
            yield from event_blocks(m)

        monkeypatch.setattr(analytics, "_event_blocks", spy)
        p = params("0.25", "0.9", 4)
        assert pf_bruteforce(cfg, p) == failure_reports(cfg, p, exact=True)
        assert passes == [4]


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
