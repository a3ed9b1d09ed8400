"""Tests for minimal-resource search and the (mu, lambda) grid scan."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wbcsim.optimizer import (
    NOT_FOUND,
    OUTSIDE_REGION,
    GridSpec,
    _blocks,
    config_crossings,
    even_grid,
    grid_search,
    m_min_table,
    m_min_upper,
)
import wbcsim.analytics as analytics
from wbcsim.analytics import pf_no_faulty_exact, pf_R_bounds, pf_S_bounds
from wbcsim.protocol import _BLOCK_ELEMENTS, AdversaryConfig, ParameterError, ProtocolParams, _thresholds
from wbcsim.security import in_guaranteed_region

MU, LAM = "0.272", "0.94"


def worst_upper_bound(mu, lam, m):
    """The largest exact/upper failure probability over the three
    configurations, read from the formulas directly."""
    p = ProtocolParams.create(mu, lam, m)
    return max(pf_no_faulty_exact(p).value, pf_S_bounds(p)[1].value, pf_R_bounds(p)[1].value)


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

    def test_numpy_window_bounds_pass(self):
        assert m_min_table(MU, LAM, 0.05, np.int64(270), np.int64(300)) == m_min_table(MU, LAM, 0.05, 270, 300)

    # m_lo = 1.5 used to raise a TypeError from range, and m_hi = True to scan m = 1 alone
    @pytest.mark.parametrize("m_lo,m_hi", [(50, 10), (0, 10), (1.5, 10), (1, 10.0), (True, 10), (1, True)])
    def test_crossings_reject_bad_window(self, m_lo, m_hi):
        with pytest.raises(ValueError, match="m_lo <= m_hi"):
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

    @pytest.mark.parametrize("ms", [[], [0, 280], [-3]])
    def test_rejects_candidates_that_are_empty_or_below_one(self, ms):
        # both used to pass the spec: [] answered NOT_FOUND for every
        # in-region cell, and m = 0 failed only when a cell evaluated it
        with pytest.raises(ValueError, match="m_candidates"):
            GridSpec((Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.93"), Fraction("0.95"), 2), ms, 0.05)

    @pytest.mark.parametrize("ms", [[279.5, 280.5], [True, 280], [270.0, 280], ["280"]])
    def test_rejects_candidates_that_are_not_integers(self, ms):
        # [279.5, 280.5] used to fail later with an IndexError, and a bool
        # passed as the count 1
        with pytest.raises(ValueError, match="m_candidates"):
            GridSpec((Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.93"), Fraction("0.95"), 2), ms, 0.05)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True])
    def test_rejects_steps_that_are_not_counts(self, steps):
        # 2.5 and 3.0 used to pass the spec and fail in even_grid with a TypeError
        with pytest.raises(ValueError, match="at least 2 steps"):
            GridSpec((Fraction("0.271"), Fraction("0.273"), steps), (Fraction("0.93"), Fraction("0.95"), 2), [280], 0.05)
        with pytest.raises(ValueError, match="at least 2 steps"):
            even_grid("0.271", "0.273", steps)

    def test_numpy_steps_pass(self):
        assert even_grid("0.271", "0.273", np.int64(3)) == even_grid("0.271", "0.273", 3)

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


def fraction_thresholds(mu, lam, m):
    """T = ceil(mu*m) and Q = T - ceil(lam*T) + 1 as Fraction ceilings."""
    T = math.ceil(mu * m)
    return T, T - math.ceil(lam * T) + 1


class TestThresholdColumns:
    @given(
        st.one_of(
            st.decimals(Fraction(1, 10**6), Fraction(333333, 10**6), places=6).map(Fraction),
            st.floats(1e-6, 0.333333).map(Fraction),
        ),
        st.one_of(
            st.decimals(Fraction(500001, 10**6), Fraction(999999, 10**6), places=6).map(Fraction),
            st.floats(0.500001, 0.999999).map(Fraction),
        ),
        st.lists(st.integers(1, 10**4), min_size=1, max_size=40),
    )
    @settings(max_examples=100)
    def test_threshold_columns_match_create(self, mu, lam, ms):
        # ProtocolParams.create calls _thresholds too, so the reference is
        # the rule itself, as Fraction ceilings
        T, Q = _thresholds(mu, lam, np.array(ms, dtype=object))
        assert list(zip(T, Q)) == [fraction_thresholds(mu, lam, m) for m in ms]

    def test_threshold_columns_of_float_parameters_past_int64(self):
        # --inexact reads floats: 0.3 and 0.945 have numerators of 5.4e15 and
        # 8.5e15, so their products with m and T leave int64 from m ~ 1700
        mu, lam = Fraction(0.3), Fraction(0.945)
        ms = range(1, 10**4 + 1)
        assert mu.numerator * ms[-1] > np.iinfo(np.int64).max
        T, Q = _thresholds(mu, lam, np.array(ms, dtype=object))
        assert list(zip(T, Q)) == [fraction_thresholds(mu, lam, m) for m in ms]


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


@pytest.mark.slow
def test_smallest_advertised_target_up_to_m_15000():
    # the 1e-30 target: about 4 s on certified windows, where whole rows took 13-19 s
    table = m_min_table(MU, LAM, 1e-30, 1, 15000)
    assert table == {"no-faulty": 7492, "s-faulty": 7492, "r0-faulty": 11927, "overall": 11927}


class TestBlocks:
    @pytest.fixture
    def blocks(self, monkeypatch):
        """Each block-formula call as (config, [m, ...]), in call order."""
        seen = []

        def spy(cfg, rows, *args, _fn=analytics._report_rows):
            seen.append((cfg, [int(m) for m, _, _ in rows]))
            return _fn(cfg, rows, *args)

        monkeypatch.setattr(analytics, "_report_rows", spy)
        return seen

    @pytest.mark.parametrize("m_lo,m_hi", [(1, 400), (9999, 10001)])
    def test_blocks_are_bounded_and_cover_each_m_once(self, blocks, m_lo, m_hi):
        assert m_min_upper(MU, LAM, 1e-300, m_lo, m_hi) == NOT_FOUND
        for cfg in AdversaryConfig:
            runs = [ms for name, ms in blocks if name is cfg]
            assert [m for ms in runs for m in ms] == list(range(m_lo, m_hi + 1))
            # float rows span windows of at most _row_width entries, not m
            assert all(len(ms) * analytics._row_width(max(ms)) <= _BLOCK_ELEMENTS for ms in runs)
        if m_lo > 1000:
            assert max(map(len, runs)) > 1  # large-m blocks hold several rows

    @pytest.mark.parametrize(
        "p_target,seen", [(0.05, {280, 289, NOT_FOUND, OUTSIDE_REGION}), (0.5, {100, OUTSIDE_REGION})]
    )
    def test_grid_matches_scalar_first_crossings(self, p_target, seen):
        # candidates of very different widths share one block of rows
        ms = [10, 50, 100, *range(270, 301)]
        g = GridSpec((Fraction("0.25"), Fraction("0.275"), 4), (Fraction("0.9325"), Fraction("0.9475"), 4), ms, p_target)
        self.assert_grid_matches_scalar_first_crossings(g, seen)

    def test_wide_window_matches_scalar_first_crossings(self):
        # cells cross in three different blocks of m and leave the scan at different times
        ms = range(1, 2001)
        g = GridSpec((Fraction("0.26"), Fraction("0.30"), 3), (Fraction("0.90"), Fraction("0.94"), 2), ms, 0.2)
        self.assert_grid_matches_scalar_first_crossings(g, {143, 164, 223, 276, 288, OUTSIDE_REGION})

    @staticmethod
    def assert_grid_matches_scalar_first_crossings(g, seen):
        ms, p_target = g.m_candidates, g.p_target
        verdicts = set()
        for mu, lam, verdict in grid_search(g):
            if in_guaranteed_region(mu, lam):
                assert verdict == next((m for m in ms if worst_upper_bound(mu, lam, m) < p_target), NOT_FOUND)
            else:
                assert verdict == OUTSIDE_REGION
            verdicts.add(verdict)
        assert verdicts == seen


class TestGridScan:
    @pytest.fixture
    def rows(self, monkeypatch):
        """Each block-formula call as (config, [(m, T, Q), ...]), in call order."""
        seen = []

        def spy(cfg, rows, *args, _fn=analytics._report_rows):
            seen.append((cfg, [tuple(map(int, row)) for row in rows]))
            return _fn(cfg, rows, *args)

        monkeypatch.setattr(analytics, "_report_rows", spy)
        return seen

    @staticmethod
    def spec(lambda_range, ms):
        return GridSpec((Fraction("0.269"), Fraction("0.275"), 7), lambda_range, ms, 0.05)

    @staticmethod
    def cell_rows(g, inside_only=False):
        """Every (m, T, Q) that ProtocolParams.create gives the grid's cells."""
        cells = [(mu, lam) for mu in g.mu_values() for lam in g.lambda_values()]
        cells = [cell for cell in cells if in_guaranteed_region(*cell) or not inside_only]
        return {(p.m, p.T, p.Q) for p in (ProtocolParams.create(mu, lam, m) for mu, lam in cells for m in g.m_candidates)}

    def test_default_grid_evaluates_each_distinct_row_once(self, rows):
        g = self.spec((Fraction("0.9325"), Fraction("0.9475"), 7), range(270, 301))
        grid_search(g)
        keys = self.cell_rows(g)
        assert len(keys) == 187
        assert len(rows) <= 12
        for cfg in AdversaryConfig:
            # each row is a real cell's (m, T, Q), as ProtocolParams.create gives them, once
            assert sorted(row for name, block in rows if name is cfg for row in block) == sorted(keys)
        for _, block in rows:
            assert len(block) * max(m for m, _, _ in block) <= _BLOCK_ELEMENTS
            assert block == sorted(set(block))  # distinct, in ascending m

    def test_scan_stops_after_the_block_of_the_last_crossing(self, rows):
        g = self.spec((Fraction("0.9375"), Fraction("0.9475"), 5), range(1, 2001))
        verdicts = [verdict for _, _, verdict in grid_search(g)]
        assert set(verdicts) == {280, 281, 282, 287}
        last_block = next(block for block in _blocks(range(1, 2001)) if max(verdicts) in block)
        assert max(m for _, block in rows for m, _, _ in block) == last_block[-1]

    def test_numpy_candidates_keep_exact_thresholds(self, rows):
        # Fraction(0.3) has a numerator of 5.4e15: times an np.int64 m past
        # 1707 it would wrap around in int64
        ms = np.arange(1800, 1811)
        g = GridSpec((Fraction(0.29), Fraction(0.3), 2), (Fraction(0.94), Fraction(0.945), 2), ms, 1e-4)
        verdicts = grid_search(g)
        keys, first = self.cell_rows(g, inside_only=True), next(_blocks(ms))
        for cfg in AdversaryConfig:
            evaluated = [row for name, block in rows if name is cfg for row in block]
            # each row is a real cell's (m, T, Q), once; every cell is open over the first block of m
            assert len(set(evaluated)) == len(evaluated) and set(evaluated) <= keys
            assert {row for row in evaluated if row[0] in first} == {row for row in keys if row[0] in first}
        assert verdicts == grid_search(GridSpec(g.mu_range, g.lambda_range, ms.tolist(), g.p_target))
