"""Tests for the guaranteed-security region and the asymptotic bounds."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wbcsim.analytics import pf_no_faulty_exact, pf_R_bounds, pf_S_bounds
from wbcsim.montecarlo import estimate_pf
from wbcsim.protocol import AdversaryConfig, ParameterError, ProtocolParams
from wbcsim.security import (
    chernoff_no_faulty,
    chernoff_R,
    chernoff_S,
    _region_grid,
    in_guaranteed_region,
    lambda_threshold,
)
from wbcsim.source import sample_event, substream

MU, LAM = "0.272", "0.94"


class TestRegion:
    @pytest.mark.parametrize(
        "mu,lam,expected",
        [
            ("0.272", "0.94", True),
            ("0.25", "0.90", False),  # threshold at mu = 0.25 is about 0.944
            ("0.20", "0.99", False),  # mu below 2/9
            (Fraction(2, 9), "0.99", False),  # boundary is excluded
            ("0.3", "1", False),
            (Fraction(1, 3), "0.99", False),
        ],
    )
    def test_examples(self, mu, lam, expected):
        assert in_guaranteed_region(mu, lam) is expected

    def test_lambda_threshold_value(self):
        assert lambda_threshold(Fraction(1, 4)) == Fraction(17, 18)

    def test_boundary_is_exact(self):
        mu = Fraction("0.272")
        thr = lambda_threshold(mu)
        assert not in_guaranteed_region(mu, thr)
        assert in_guaranteed_region(mu, thr + Fraction(1, 10**9))

    def test_agrees_with_inequalities_on_a_grid(self):
        steps = 200
        for i in range(steps):
            mu = Fraction(1, 3) * Fraction(i, steps - 1)
            for j in range(0, steps, 7):  # full 200x200 lives in the acceptance suite
                lam = Fraction(1, 2) + Fraction(1, 2) * Fraction(j, steps - 1)
                expected = Fraction(2, 9) < mu < Fraction(1, 3) and (2 + 9 * mu) < 18 * mu * lam and lam < 1
                assert in_guaranteed_region(mu, lam) == expected

    # mu below 0, on 0, and on and beside 2/9 and 1/3; lambda on and beside
    # each positive mu's threshold, on 1/2 and on 1. lambda_threshold raises
    # at mu <= 0, where the grid test reads False
    @example(
        mus=[Fraction(-1, 4), Fraction(0), Fraction("0.272"), Fraction(1, 2)]
        + [mu + e for mu in (Fraction(2, 9), Fraction(1, 3)) for e in (-Fraction(1, 10**12), 0, Fraction(1, 10**12))],
        lams=[Fraction(1, 2), Fraction(1), Fraction(11, 10)]
        + [lambda_threshold(mu) + e for mu in (Fraction(2, 9), Fraction("0.272"), Fraction(1, 3)) for e in (-Fraction(1, 10**12), 0, Fraction(1, 10**12))],
    )
    @given(
        mus=st.lists(st.fractions(-1, 1, max_denominator=10**4), min_size=1, max_size=6),
        lams=st.lists(st.fractions(0, 2, max_denominator=10**4), min_size=1, max_size=6),
    )
    def test_grid_test_is_the_written_rule(self, mus, lams):
        # in_guaranteed_region is the one-cell grid; the rule as written, with lambda_threshold only inside (2/9, 1/3)
        rule = [[Fraction(2, 9) < mu < Fraction(1, 3) and lambda_threshold(mu) < lam < 1 for lam in lams] for mu in mus]
        assert _region_grid(mus, lams) == rule
        assert [[in_guaranteed_region(mu, lam) for lam in lams] for mu in mus] == rule


class TestChernoffFormulas:
    def test_no_faulty_value(self):
        expected = math.exp(-(1000 / 6) * (1 - 3 * 0.272) ** 2)
        assert chernoff_no_faulty(MU, 1000) == pytest.approx(expected, rel=1e-12)

    def test_no_faulty_rejects_large_mu(self):
        with pytest.raises(ParameterError):
            chernoff_no_faulty(Fraction(1, 3), 100)

    def test_s_value_and_vacuous_origin(self):
        expected = 2 ** (-(1 - 0.94) * 0.272 * 200) + 4 * math.exp(-(200 / 9) * (1 - 3 * 0.272) ** 2)
        assert chernoff_S(MU, LAM, 200) == pytest.approx(expected, rel=1e-12)
        # m = 0 is no count of singlets: rejected, where it used to give the vacuous 5
        with pytest.raises(ParameterError):
            chernoff_S(MU, LAM, 0)

    def test_s_rejects_small_lambda(self):
        for lam in ("0.4", "0.5"):  # 1/2 itself used to pass
            with pytest.raises(ParameterError, match=re.escape("must satisfy 1/2 < lambda < 1")):
                chernoff_S(MU, lam, 100)

    @pytest.mark.parametrize(
        "bound,args",
        [
            (chernoff_S, (-1, "0.9", 10)),  # used to return 2.0
            (chernoff_S, (0, "0.9", 10)),
            (chernoff_S, ("0.3", "1.5", 10)),  # used to return 6.78
            (chernoff_S, ("0.3", 1, 10)),
            (chernoff_no_faulty, (-1, 10)),
            (chernoff_no_faulty, (0, 10)),
            (lambda_threshold, (0,)),
            (lambda_threshold, ("-0.25",)),
            # non-finite values raised OverflowError or "cannot convert NaN to integer ratio"
            (chernoff_S, ("0.3", math.inf, 10)),
            (chernoff_S, (math.nan, "0.9", 10)),
            (chernoff_no_faulty, (math.inf, 10)),
            (chernoff_R, ("0.3", math.nan, 10)),
            (lambda_threshold, (math.nan,)),
            (in_guaranteed_region, (math.inf, "0.9")),
        ],
    )
    def test_rejects_out_of_range_parameters(self, bound, args):
        with pytest.raises(ParameterError):
            bound(*args)

    @pytest.mark.parametrize("m", [-5, 0, 2.5, 10.0, True, "10", None])
    @pytest.mark.parametrize("bound", [chernoff_no_faulty, chernoff_S, chernoff_R])
    def test_rejects_m_that_is_not_a_count(self, bound, m):
        # m = -5 gave 1.03 for chernoff_no_faulty; 2.5 and True were accepted
        args = (MU, m) if bound is chernoff_no_faulty else (MU, LAM, m)
        with pytest.raises(ParameterError, match="must be a positive count"):
            bound(*args)

    def test_numpy_integer_m_is_a_count(self):
        assert chernoff_S(MU, LAM, np.int64(200)) == chernoff_S(MU, LAM, 200)
        assert chernoff_R(MU, LAM, np.int32(300)) == chernoff_R(MU, LAM, 300)
        assert chernoff_no_faulty(MU, np.uint16(1000)) == chernoff_no_faulty(MU, 1000)

    def test_ranges_are_exact_rationals(self):
        # a mu just below 1/3 is inside the region, though its float is 1/3's
        mu = "0.33333333333333333"
        assert in_guaranteed_region(mu, "0.99") and float(Fraction(mu)) == 1 / 3
        for value in (chernoff_no_faulty(mu, 10), chernoff_S(mu, "0.99", 10), chernoff_R(mu, "0.99", 10)):
            assert math.isfinite(value)

    def test_s_decreasing_in_m(self):
        values = [chernoff_S(MU, LAM, m) for m in range(10, 400, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_r_value(self):
        mu, lam, m = 0.272, 0.94, 300
        delta = (2 + 9 * mu - 18 * lam * mu) / (6 - 27 * mu)
        x_bar = (3 * mu / 2 - 1 / 3) * m
        expected = (
            2 * math.exp(-(m / 9) * (1 - 3 * mu) ** 2)
            + 2 * math.exp(-(m / 18) * (1 - 3 * mu) ** 2)
            + math.exp(-x_bar * delta**2 / 3)
        )
        assert chernoff_R(MU, LAM, m) == pytest.approx(expected, rel=1e-12)

    def test_r_vacuous_at_region_boundary(self):
        mu = Fraction("0.272")
        thr = lambda_threshold(mu)
        value = chernoff_R(mu, thr, 100)
        tails = 2 * math.exp(-(100 / 9) * (1 - 3 * 0.272) ** 2) + 2 * math.exp(-(100 / 18) * (1 - 3 * 0.272) ** 2)
        assert value == pytest.approx(tails + 1, rel=1e-12)  # guess term degenerates to 1

    def test_r_rejects_below_boundary(self):
        with pytest.raises(ParameterError):
            chernoff_R("0.25", "0.90", 100)
        with pytest.raises(ParameterError):
            chernoff_R("0.2", "0.99", 100)


class TestOneRule:
    """Each input rule is stated once, so every entry point words it alike."""

    @pytest.mark.parametrize(
        "mu,lam,message",
        [
            (0, LAM, "mu=0 must satisfy 0 < mu < 1/3"),
            (Fraction(1, 3), LAM, "mu=1/3 must satisfy 0 < mu < 1/3"),
            ("-0.1", LAM, "mu=-1/10 must satisfy 0 < mu < 1/3"),
            (MU, "0.5", "lambda=1/2 must satisfy 1/2 < lambda < 1"),
            (MU, 1, "lambda=1 must satisfy 1/2 < lambda < 1"),
        ],
        ids=["mu=0", "mu=1/3", "mu=-0.1", "lambda=0.5", "lambda=1"],
    )
    def test_a_range_reads_alike_at_every_entry_point(self, mu, lam, message):
        # ProtocolParams said "violates", and chernoff_R gave mu = 1/3 its own "2/9 < mu < 1/3"
        calls = [lambda: ProtocolParams(mu, lam, 10), lambda: chernoff_S(mu, lam, 10)]
        if lam == LAM:
            calls.append(lambda: chernoff_no_faulty(mu, 10))
        if mu in (MU, Fraction(1, 3)):
            calls.append(lambda: chernoff_R(mu, lam, 10))
        for call in calls:
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True, "10", None])
    def test_a_count_reads_alike_at_every_entry_point(self, bad):
        # ProtocolParams, the bounds and sample_event said "m=0 must be a positive count"
        p, cfg = ProtocolParams(MU, LAM, 10), AdversaryConfig.NO_FAULTY
        cases = [
            ("m must be a positive count", ParameterError, lambda: ProtocolParams(MU, LAM, bad)),
            ("m must be a positive count", ParameterError, lambda: chernoff_no_faulty(MU, bad)),
            ("m must be a positive count", ParameterError, lambda: chernoff_S(MU, LAM, bad)),
            ("m must be a positive count", ParameterError, lambda: chernoff_R(MU, LAM, bad)),
            ("m must be a positive count", ValueError, lambda: sample_event(bad, 1)),
            ("n_trials must be a positive count", ValueError, lambda: estimate_pf(cfg, p, bad, 1)),
            ("jobs must be a positive count", ValueError, lambda: estimate_pf(cfg, p, 10, 1, jobs=bad)),
        ]
        if bad != 0:  # 0 is a seed and a trial index
            cases += [
                ("seed must be a non-negative int", ValueError, lambda: estimate_pf(cfg, p, 10, bad)),
                ("seed must be a non-negative int", ValueError, lambda: sample_event(3, bad)),
                ("seed must be a non-negative int", ValueError, lambda: substream(bad, 0)),
                ("index must be a non-negative int", ValueError, lambda: substream(0, bad)),
            ]
        for prefix, error, call in cases:
            with pytest.raises(error, match=f"^{re.escape(f'{prefix}, got {bad!r}')}$") as info:
                call()
            assert type(info.value) is error


class TestDomination:
    def test_bounds_dominate_analytic_values(self):
        for m in range(50, 401, 50):
            p = ProtocolParams.create(MU, LAM, m)
            assert chernoff_no_faulty(MU, m) >= pf_no_faulty_exact(p).value
            assert chernoff_S(MU, LAM, m) >= pf_S_bounds(p)[1].value
            assert chernoff_R(MU, LAM, m) >= pf_R_bounds(p)[1].value

    def test_log_bound_slope_negative_inside_region(self):
        for fn in (lambda m: chernoff_no_faulty(MU, m), lambda m: chernoff_S(MU, LAM, m), lambda m: chernoff_R(MU, LAM, m)):
            assert math.log(fn(2000)) - math.log(fn(1000)) < 0
