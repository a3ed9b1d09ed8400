"""Tests for minimal-resource search and the (mu, lambda) grid scan."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wbcsim.optimizer import (
    NOT_FOUND,
    OUTSIDE_REGION,
    GridSpec,
    even_grid,
    grid_search,
    m_min_table,
    m_min_upper,
)
import wbcsim.analytics as analytics
import wbcsim.optimizer as optimizer
from wbcsim.analytics import failure_reports, pf_no_faulty_exact, pf_R_bounds, pf_S_bounds
from wbcsim.protocol import AdversaryConfig, ParameterError, ProtocolParams, _thresholds
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
        crossings = m_min_table(Fraction(MU), Fraction(LAM), 0.05, 1, 400, require_region=False)
        assert crossings == {"no-faulty": 143, "s-faulty": 246, "r0-faulty": 280, "overall": 280}

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

    @pytest.mark.parametrize("p_target", [True, np.True_])
    def test_target_must_not_be_a_bool(self, p_target):
        # True passed as the target 1: m_min_table answered a table and GridSpec accepted it
        with pytest.raises(ValueError, match="p_target must be a probability"):
            m_min_table("0.272", "0.94", p_target)
        with pytest.raises(ValueError, match="p_target must be a probability"):
            GridSpec((Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.93"), Fraction("0.95"), 2), [280], p_target)

    @pytest.mark.parametrize("p_target", ["0.05", None, [0.05]])
    def test_target_must_be_a_real_number(self, p_target):
        # m_min_upper("0.272", "0.94", "0.05") raised TypeError from the comparison
        with pytest.raises(ValueError, match="p_target must be a probability"):
            m_min_upper("0.272", "0.94", p_target)
        with pytest.raises(ValueError, match="p_target must be a probability"):
            GridSpec((Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.93"), Fraction("0.95"), 2), [280], p_target)

    @pytest.mark.parametrize("p_target", [Fraction(1, 20), np.float64(0.05), np.float32(0.05), 1])
    def test_real_targets_pass(self, p_target):
        assert m_min_upper("0.272", "0.94", p_target, 270, 300) == m_min_upper("0.272", "0.94", float(p_target), 270, 300)

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
            m_min_table(MU, LAM, 0.05, m_lo, m_hi, require_region=False)

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

    def test_rejects_candidates_that_are_not_sequences(self):
        # a generator or a dict_keys of ascending counts passed the spec (the
        # check used the generator up) and grid_search raised a bare TypeError
        counts = (m for m in range(270, 301))
        for ms in (counts, dict.fromkeys(range(270, 301)).keys()):
            with pytest.raises(ValueError, match="m_candidates"):
                GridSpec((Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.93"), Fraction("0.95"), 2), ms, 0.05)
        assert next(counts) == 270

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

    def test_axes_are_compared_as_numbers(self):
        # ("1/4", "0.3") was rejected and (".3", "0.25") accepted, then searched
        # on a descending mu axis, because the strings were compared as text
        lams = (Fraction("0.93"), Fraction("0.95"), 2)
        assert GridSpec(("1/4", "0.3", 3), lams, [280], 0.05).mu_values() == [Fraction(1, 4), Fraction(11, 40), Fraction(3, 10)]
        with pytest.raises(ValueError, match="lo < hi"):
            GridSpec((".3", "0.25", 3), lams, [280], 0.05)
        with pytest.raises(ValueError, match="lo < hi"):
            even_grid(".3", "0.25", 3)

    def test_mixed_fraction_and_text_axis_passes(self):
        # (Fraction(1, 4), "0.3") raised TypeError: '<' between Fraction and str
        g = GridSpec((Fraction(1, 4), "0.3", 3), (Fraction("0.93"), Fraction("0.95"), 2), [280], 0.05)
        assert g.mu_values() == even_grid("0.25", "0.3", 3)

    def test_numpy_steps_pass(self):
        assert even_grid("0.271", "0.273", np.int64(3)) == even_grid("0.271", "0.273", 3)

    @pytest.mark.parametrize("ms", [np.arange(270, 301), [np.int64(m) for m in range(270, 301)]], ids=["ndarray", "int64-list"])
    def test_numpy_candidates_are_stored_as_python_ints(self, ms):
        # numpy candidates used to give numpy.int64 verdicts, which json.dumps rejects
        mus, lams = (Fraction("0.271"), Fraction("0.273"), 2), (Fraction("0.93"), Fraction("0.95"), 2)
        g = GridSpec(mus, lams, ms, 0.05)
        assert g.m_candidates == tuple(range(270, 301)) and {type(m) for m in g.m_candidates} == {int}
        assert json.dumps([v for _, _, v in grid_search(g)]) == '["NOT_FOUND", 292, "NOT_FOUND", 290]'
        assert GridSpec(mus, lams, [280], 0.05) == GridSpec(mus, lams, (280,), 0.05)

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

    def test_each_axis_is_built_once(self, monkeypatch):
        # the lambda axis used to be built once per mu: 8 even_grid calls on this 7x7 grid
        g = GridSpec((Fraction("0.269"), Fraction("0.275"), 7), (Fraction("0.9325"), Fraction("0.9475"), 7), range(270, 301), 0.05)
        expected = [
            (mu, lam, m_min_upper(mu, lam, 0.05, 270, 300) if in_guaranteed_region(mu, lam) else OUTSIDE_REGION)
            for mu in even_grid(*g.mu_range)
            for lam in even_grid(*g.lambda_range)
        ]
        calls = []

        def spy(*args, _fn=optimizer.even_grid):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(optimizer, "even_grid", spy)
        assert grid_search(g) == expected
        assert calls == [g.mu_range, g.lambda_range]

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

    @pytest.mark.parametrize("mu,lam", [("0.272", "0.94"), ("0.3", "0.8")])
    def test_printed_upper_bounds_decide_the_crossings(self, monkeypatch, mu, lam):
        # `exact` prints each UPPER from a one-row call, and repr round-trips;
        # at p_target set to any of them the scan answers the first m whose
        # printed UPPER is below it. Row sums that depended on a row's block
        # answered 38 of these 1600 scans wrongly.
        ms = range(1, 401)
        printed = {cfg: [failure_reports(cfg, ProtocolParams.create(mu, lam, m))[1].value for m in ms]
                   for cfg in (AdversaryConfig.S_FAULTY, AdversaryConfig.R0_FAULTY)}
        # every scan of 1..400 hands the formulas the same blocks: each is evaluated once
        evaluated = {}

        def once(cfg, rows, *args, _fn=analytics._report_rows):
            key = (cfg, rows.tobytes(), args)
            if key not in evaluated:
                evaluated[key] = _fn(cfg, rows, *args)
            return evaluated[key]

        monkeypatch.setattr(analytics, "_report_rows", once)
        for cfg, upper in printed.items():
            for target in upper:
                first = next((m for m, u in zip(ms, upper) if u < target), NOT_FOUND)
                assert m_min_table(mu, lam, target, 1, 400, require_region=False)[cfg.value] == first, (cfg, target)


def naive_crossings(cell, p_target, ms):
    """Every row of every configuration evaluated, and each first crossing read off."""
    rows = np.array([(p.m, p.T, p.Q) for p in (ProtocolParams.create(*cell, m) for m in ms)])
    below = [[*analytics._report_rows(cfg, rows).values()][-1] < p_target for cfg in AdversaryConfig]
    out = {cfg.value: next((m for m, b in zip(ms, bs) if b), NOT_FOUND) for cfg, bs in zip(AdversaryConfig, below)}
    out["overall"] = next((m for m, *bs in zip(ms, *below) if all(bs)), NOT_FOUND)
    return out


class TestScanRules:
    # mu and lambda across the protocol's range, so cells fall inside the
    # guaranteed region and in its grey margin; run lengths of 1 and 7 put
    # per-configuration crossings in earlier runs than "overall" often
    @settings(max_examples=30, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(150, 333).map(lambda i: Fraction(i, 1000)), st.integers(501, 999).map(lambda i: Fraction(i, 1000))),
            min_size=1,
            max_size=4,
        ),
        p_target=st.floats(-30, math.log10(0.6)).map(lambda e: 10**e),
        m_lo=st.integers(1, 3000),
        width=st.integers(1, 200),
        run=st.sampled_from([1, 7, 64]),
    )
    # the design cell crosses for no-faulty (143), S (246) and overall (280) in three runs
    @example(cells=[(Fraction(MU), Fraction(LAM)), (Fraction("0.3"), Fraction("0.8"))], p_target=0.05, m_lo=1, width=400, run=64)
    @example(cells=[(Fraction(MU), Fraction(LAM))], p_target=1e-30, m_lo=7400, width=200, run=64)
    def test_scan_matches_every_row_of_every_configuration(self, cells, p_target, m_lo, width, run):
        ms = range(m_lo, m_lo + width)
        default, optimizer._RUN = optimizer._RUN, run
        try:
            scanned = optimizer._scan(cells, p_target, ms)
        finally:
            optimizer._RUN = default
        assert scanned == [naive_crossings(cell, p_target, ms) for cell in cells]


class TestLargeM:
    # a row key (m * B + T) * B + Q with B = max(m) + 1 leaves int64 from
    # m ~ 2 * 10^6; the scan's keys are indices into the run's rows
    def test_keys_hold_at_m_three_million(self):
        assert m_min_table(MU, LAM, 0.05, 2999990, 3000000) == dict.fromkeys(["no-faulty", "s-faulty", "r0-faulty", "overall"], 2999990)

    @pytest.mark.slow
    def test_grid_at_m_three_million_matches_each_cell(self):
        ms = range(2999990, 3000001)
        g = GridSpec(("0.27", "0.272", 2), ("0.94", "0.95", 2), ms, 0.05)
        table = grid_search(g)
        assert [verdict for _, _, verdict in table] == [m_min_table(mu, lam, 0.05, ms[0], ms[-1])["overall"] for mu, lam, _ in table]
        assert {verdict for _, _, verdict in table} == {2999990}


@pytest.mark.slow
def test_heatmap_matches_each_cell():
    # the (mu, lambda) plane at 200 x 200 cells over m = 1..400; every 74th
    # in-region cell, row-major, against its own scan
    g = GridSpec(("0.23", "0.33", 200), ("0.75", "0.99", 200), range(1, 401), 0.05)
    inside = [(mu, lam, verdict) for mu, lam, verdict in grid_search(g) if verdict != OUTSIDE_REGION]
    assert len(inside) == 14833
    sample = inside[::74][:200]
    assert [verdict for _, _, verdict in sample] == [m_min_table(mu, lam, 0.05, 1, 400)["overall"] for mu, lam, _ in sample]
    assert NOT_FOUND in {verdict for _, _, verdict in sample} and len({verdict for _, _, verdict in sample}) > 5


@pytest.mark.slow
def test_smallest_advertised_target_up_to_m_15000():
    # the 1e-30 target: about 1 s, where evaluating every row on certified
    # windows took 3-4 s and on whole rows 13-19 s
    table = m_min_table(MU, LAM, 1e-30, 1, 15000)
    assert table == {"no-faulty": 7492, "s-faulty": 7492, "r0-faulty": 11927, "overall": 11927}


@pytest.fixture
def formula_blocks(monkeypatch):
    """Each call of the S and R0 formulas as (m column, the widest window's
    z), in call order; z is inf where the rows are whole."""
    seen = []
    for name in ("_s_rows", "_r_rows"):

        def spy(m, T, Q, b, z=None, _fn=getattr(analytics, name)):
            seen.append((m.tolist(), np.inf if z is None else z.max()))
            return _fn(m, T, Q, b, z)

        monkeypatch.setattr(analytics, name, spy)
    return seen


def assert_within_budget(formula_blocks):
    # float rows span windows of at most _row_width entries at their z, not m
    for ms, z in formula_blocks:
        assert len(ms) == 1 or len(ms) * analytics._row_width(max(ms), z) <= analytics._FORMULA_ENTRIES, (len(ms), max(ms), z)


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
    def test_blocks_are_bounded_and_cover_each_m_once(self, blocks, formula_blocks, m_lo, m_hi):
        # no-faulty is above 1e-300 on every row, and so is each faulty UPPER:
        # the scan evaluates no-faulty on each m once and no S or R0 row
        assert m_min_upper(MU, LAM, 1e-300, m_lo, m_hi) == NOT_FOUND
        ms = list(range(m_lo, m_hi + 1))
        assert [m for name, block in blocks if name is AdversaryConfig.NO_FAULTY for m in block] == ms
        assert {name for name, _ in blocks} == {AdversaryConfig.NO_FAULTY} and not formula_blocks
        # handed the same rows, the S and R0 formulas cut them into bounded blocks
        rows = np.array([(p.m, p.T, p.Q) for p in (ProtocolParams.create(MU, LAM, m) for m in ms)])
        for cfg in (AdversaryConfig.S_FAULTY, AdversaryConfig.R0_FAULTY):
            analytics._report_rows(cfg, rows)
        # each m is one S and one R0 row
        assert sorted(m for ms, _ in formula_blocks for m in ms) == sorted(2 * ms)
        assert_within_budget(formula_blocks)
        if m_lo > 1000:
            assert max(len(ms) for ms, _ in formula_blocks) > 1  # large-m blocks hold several rows

    def test_verdicts_do_not_depend_on_the_run_length(self, monkeypatch):
        # runs of one m, of a few, the default and one run holding every candidate
        grids = [
            GridSpec((Fraction("0.25"), Fraction("0.3"), 3), (Fraction("0.9"), Fraction("0.95"), 3), range(1, 301), p_target)
            for p_target in (0.5, 0.05)
        ] + [GridSpec((Fraction("0.26"), Fraction("0.28"), 2), (Fraction("0.93"), Fraction("0.95"), 2), [10, 50, 100, *range(270, 301)], 0.05)]
        tables = [(mu, lam, p_target) for mu, lam in ((MU, LAM), ("0.3", "0.8")) for p_target in (0.6, 0.2, 0.05)]
        answers = {}
        for run in (1, 5, 64, 1000):
            monkeypatch.setattr(optimizer, "_RUN", run)
            answers[run] = (
                [grid_search(g) for g in grids],
                [m_min_table(mu, lam, p_target, 1, 300, require_region=False) for mu, lam, p_target in tables],
            )
        assert answers[1] == answers[5] == answers[64] == answers[1000]
        grid_verdicts = {verdict for table in answers[64][0] for _, _, verdict in table}
        table_verdicts = {verdict for table in answers[64][1] for verdict in table.values()}
        assert NOT_FOUND in grid_verdicts and len(grid_verdicts - {NOT_FOUND, OUTSIDE_REGION}) > 2
        assert NOT_FOUND in table_verdicts and len(table_verdicts - {NOT_FOUND}) > 4

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

    def test_default_grid_evaluates_each_distinct_row_once(self, rows, formula_blocks):
        g = self.spec((Fraction("0.9325"), Fraction("0.9475"), 7), range(270, 301))
        grid_search(g)
        keys = self.cell_rows(g)
        assert len(keys) == 187
        assert len(rows) <= 12
        for cfg in AdversaryConfig:
            # each row is a real cell's (m, T, Q), as ProtocolParams.create gives them, once
            assert sorted(row for name, block in rows if name is cfg for row in block) == sorted(keys)
        for _, block in rows:
            assert block == sorted(set(block))  # distinct, in ascending m
        assert sorted(m for ms, _ in formula_blocks for m in ms) == sorted(2 * [m for m, _, _ in keys])
        for ms, z in formula_blocks:
            assert len(ms) * max(ms) <= analytics._FORMULA_ENTRIES and z == np.inf  # whole rows up to m = 400

    def test_wider_windows_keep_the_block_budget(self, formula_blocks):
        # at m = 2 * 10^4 and a 1e-300 target many rows are too small for
        # their first windows; their wider windows are cut at their own width.
        # No-faulty is above the target on every row, so the scan runs no S or
        # R0 row, and the formulas are handed the grid's rows directly
        ms = range(19996, 20005)
        g = GridSpec((Fraction("0.25"), Fraction("0.3"), 3), (Fraction("0.93"), Fraction("0.95"), 3), ms, 1e-300)
        assert {verdict for _, _, verdict in grid_search(g)} == {NOT_FOUND, OUTSIDE_REGION}
        assert not formula_blocks
        rows = np.array(sorted(self.cell_rows(g, inside_only=True)))  # in np.unique's order
        for cfg in (AdversaryConfig.S_FAULTY, AdversaryConfig.R0_FAULTY):
            analytics._report_rows(cfg, rows)
        assert sum(len(ms) for ms, z in formula_blocks if z > analytics._Z0) > 8
        assert_within_budget(formula_blocks)

    def test_scan_stops_after_the_block_of_the_last_crossing(self, rows):
        g = self.spec((Fraction("0.9375"), Fraction("0.9475"), 5), range(1, 2001))
        verdicts = [verdict for _, _, verdict in grid_search(g)]
        assert set(verdicts) == {280, 281, 282, 287}
        # the scan's runs are m = 1..64, 65..128, ...: it stops with the run holding 287
        last_run_end = -(-max(verdicts) // optimizer._RUN) * optimizer._RUN
        assert max(m for _, block in rows for m, _, _ in block) == last_run_end

    def test_numpy_candidates_keep_exact_thresholds(self, rows):
        # Fraction(0.3) has a numerator of 5.4e15: times an np.int64 m past
        # 1707 it would wrap around in int64
        ms = np.arange(1800, 1811)
        g = GridSpec((Fraction(0.29), Fraction(0.3), 2), (Fraction(0.94), Fraction(0.945), 2), ms, 1e-4)
        verdicts = grid_search(g)
        evaluated = {cfg: [row for name, block in rows if name is cfg for row in block] for cfg in AdversaryConfig}
        keys = self.cell_rows(g, inside_only=True)
        assert len(ms) <= optimizer._RUN  # one run, over which every cell is open
        # each row is a real cell's (m, T, Q), once per configuration: no-faulty
        # on every row, S and R0 on the rows where no-faulty is below the target
        no_faulty = dict(zip(sorted(keys), analytics._no_faulty_rows(*np.array(sorted(keys)).T, analytics._FLOAT)))
        kept = {row for row in keys if no_faulty[row] < g.p_target}
        assert kept and kept < keys
        for cfg, expected in zip(AdversaryConfig, (keys, kept, kept)):
            assert len(set(evaluated[cfg])) == len(evaluated[cfg]) and set(evaluated[cfg]) == expected, cfg
        assert verdicts == grid_search(GridSpec(g.mu_range, g.lambda_range, ms.tolist(), g.p_target))
