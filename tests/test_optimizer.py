"""Tests for minimal-resource search and the (mu, lambda) grid scan."""

from fractions import Fraction

import pytest

from wbcsim.optimizer import (
    NOT_FOUND,
    OUTSIDE_REGION,
    GridSpec,
    config_crossings,
    even_grid,
    grid_search,
    m_min_table,
    m_min_upper,
    worst_upper_bound,
)
from wbcsim.analytics import pf_no_faulty_exact, pf_R_bounds, pf_S_bounds
from wbcsim.protocol import ParameterError, ProtocolParams

MU, LAM = "0.272", "0.94"


class TestMMin:
    def test_reference_point(self):
        assert m_min_upper(MU, LAM, 0.05, 1, 400) == 280

    def test_per_config_crossings(self):
        crossings = config_crossings(Fraction(MU), Fraction(LAM), 0.05, 1, 400)
        assert crossings == {"no-faulty": 143, "s-faulty": 246, "r0-faulty": 280}

    def test_trivial_target_returns_m_lo(self):
        assert m_min_upper(MU, LAM, 1.0, 17, 60) == 17

    def test_not_found_when_window_too_small(self):
        assert m_min_upper(MU, LAM, 0.05, 1, 100) == NOT_FOUND

    def test_rejects_outside_region(self):
        with pytest.raises(ParameterError):
            m_min_upper("0.25", "0.90", 0.05, 1, 100)

    def test_region_check_can_be_disabled(self):
        verdict = m_min_upper("0.25", "0.90", 0.05, 1, 320, require_region=False)
        assert verdict == NOT_FOUND or isinstance(verdict, int)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            m_min_upper(MU, LAM, 0.05, 10, 5)

    def test_invalid_parameters_raise_without_region_check(self):
        # mu >= 1/3 violates the protocol's own domain; the scan must not
        # turn that into NOT_FOUND
        with pytest.raises(ParameterError):
            m_min_upper("0.4", "0.94", 0.05, 1, 20, require_region=False)

    @pytest.mark.parametrize("m_lo,m_hi", [(50, 10), (0, 10)])
    def test_crossings_reject_bad_window(self, m_lo, m_hi):
        with pytest.raises(ValueError):
            config_crossings(MU, LAM, 0.05, m_lo, m_hi)

    def test_crossing_is_first_not_last(self):
        # the bounds are sawtooth-shaped: within a constant-T run they creep
        # up with m and drop when T increments, so m = 283 pops back above
        # the target after the first crossing at 280
        above = [m for m in range(280, 301) if worst_upper_bound(Fraction(MU), Fraction(LAM), m) >= 0.05]
        assert above == [283]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec((Fraction(1, 4), Fraction(1, 4), 5), (Fraction(3, 5), Fraction(4, 5), 5), [10], 0.05)
        with pytest.raises(ValueError):
            GridSpec((Fraction(1, 4), Fraction(3, 10), 5), (Fraction(3, 5), Fraction(4, 5), 5), [10, 5], 0.05)
        with pytest.raises(ValueError):
            GridSpec((Fraction(1, 4), Fraction(3, 10), 5), (Fraction(3, 5), Fraction(4, 5), 5), [10], 0.0)

    def test_grid_values_are_exact_and_inclusive(self):
        mus = even_grid("0.269", "0.275", 7)
        assert mus[0] == Fraction("0.269") and mus[-1] == Fraction("0.275")
        assert Fraction("0.272") in mus
        assert Fraction("0.94") in even_grid("0.9325", "0.9475", 7)


class TestGridSearch:
    def test_outside_region_cells_are_grey(self):
        g = GridSpec((Fraction("0.20"), Fraction("0.22"), 2), (Fraction("0.93"), Fraction("0.95"), 2), [100], 0.05)
        assert all(verdict == OUTSIDE_REGION for _, _, verdict in grid_search(g))

    def test_small_window_reports_not_found(self):
        g = GridSpec((Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.93"), Fraction("0.95"), 2), [50], 0.05)
        verdicts = {v for _, _, v in grid_search(g)}
        assert verdicts <= {NOT_FOUND, OUTSIDE_REGION}

    def test_monotone_in_target(self):
        g_tight = GridSpec((Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.9375"), Fraction("0.945"), 2), list(range(270, 301)), 0.05)
        g_loose = GridSpec(g_tight.mu_range, g_tight.lambda_range, g_tight.m_candidates, 0.10)
        for (mu, lam, tight), (_, _, loose) in zip(grid_search(g_tight), grid_search(g_loose)):
            if isinstance(tight, int) and isinstance(loose, int):
                assert loose <= tight
            elif tight == OUTSIDE_REGION:
                assert loose == OUTSIDE_REGION

    def test_refinement_preserves_shared_points(self):
        coarse = GridSpec((Fraction("0.271"), Fraction("0.273"), 3), (Fraction("0.9375"), Fraction("0.945"), 2), [280], 0.05)
        fine = GridSpec((Fraction("0.271"), Fraction("0.273"), 5), (Fraction("0.9375"), Fraction("0.945"), 2), [280], 0.05)
        coarse_map = {(mu, lam): v for mu, lam, v in grid_search(coarse)}
        fine_map = {(mu, lam): v for mu, lam, v in grid_search(fine)}
        shared = set(coarse_map) & set(fine_map)
        assert shared and all(coarse_map[k] == fine_map[k] for k in shared)


class TestMMinTable:
    @staticmethod
    def first_crossings(mu, lam, p_target, m_lo, m_hi):
        """Independent first-m scan per bound and over worst_upper_bound."""
        bounds = {
            "no-faulty": lambda p: pf_no_faulty_exact(p).value,
            "s-faulty": lambda p: pf_S_bounds(p)[1].value,
            "r0-faulty": lambda p: pf_R_bounds(p)[1].value,
        }
        ms = range(m_lo, m_hi + 1)
        out = {}
        for name, bound in bounds.items():
            out[name] = next((m for m in ms if bound(ProtocolParams.create(mu, lam, m)) < p_target), NOT_FOUND)
        out["overall"] = next((m for m in ms if worst_upper_bound(mu, lam, m) < p_target), NOT_FOUND)
        return out

    @pytest.mark.parametrize(
        "mu,lam,p_target,m_lo,m_hi",
        [
            ("0.272", "0.94", 0.2, 1, 120),
            ("0.25", "0.94", 0.2, 30, 200),
            ("0.3", "0.9", 0.2, 30, 200),
            ("0.23", "0.94", 0.2, 30, 200),
        ],
    )
    def test_matches_direct_scan(self, mu, lam, p_target, m_lo, m_hi):
        table = m_min_table(mu, lam, p_target, m_lo, m_hi, require_region=False)
        assert table == self.first_crossings(mu, lam, p_target, m_lo, m_hi)
