"""Resource optimization over the (mu, lambda) plane.

Finds the minimal number of resource states meeting a failure-probability
target, from the analytic bounds only (never Monte-Carlo estimates). Grid
searches reproduce the heatmap view: grey cells outside the guaranteed
region, integer cells where a candidate m suffices, NOT_FOUND otherwise.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import analytics
from .protocol import AdversaryConfig, ParameterError, _fraction, _lam, _mu, _thresholds
from .security import _region_grid, in_guaranteed_region
from .source import _is_count

NOT_FOUND = "NOT_FOUND"
OUTSIDE_REGION = "OUTSIDE_REGION"
Verdict = Union[int, str]
# The scan hands the formulas this many candidate m at a time. The verdicts
# do not depend on it: `analytics._certified` alone cuts formula blocks.
_RUN = 64


def _check_target(p_target: float) -> None:
    """Reject a target that is a bool, not a real number, or outside (0, 1]."""
    if isinstance(p_target, bool) or not isinstance(p_target, numbers.Real) or not 0 < p_target <= 1:
        raise ValueError(f"p_target must be a probability in (0, 1], got {p_target!r}")


def _check_scan(p_target: float, m_lo: int, m_hi: int) -> None:
    """Reject a bad target or an m window other than counts 1 <= m_lo <= m_hi."""
    _check_target(p_target)
    if not (_is_count(m_lo) and _is_count(m_hi)) or m_lo > m_hi:
        raise ValueError(f"need 1 <= m_lo <= m_hi, got [{m_lo}, {m_hi}]")


def _scan(cells: Sequence[tuple], p_target: float, ms: Sequence[int]) -> list[dict[str, Verdict]]:
    """For each (mu, lambda) cell, the first m of the ascending ms where each
    configuration's bound, and all three at once ("overall"), drop below
    p_target; NOT_FOUND where none does.

    One scan over m serves every cell. A bound is a function of its
    (m, T, Q) row alone, so each run of _RUN consecutive ms collects the
    distinct rows of the open cells (`np.unique`, in ascending m), each
    configuration's formulas evaluate a row at most once, and every cell
    reads its crossings from those rows. On every row the float S and R0
    UPPER are the no-faulty value (the same `bdtr` call) plus non-negative
    terms, so where no-faulty is not below the target neither is. The
    faulty formulas therefore skip those rows:
    (a) R0 runs on every row where no-faulty is below the target;
    (b) S runs on the rows (a) keeps that an open cell still needs for its
        S crossing, or where R0 is below too ("overall" needs all three).
    A row a configuration skips reads "not below". A cell leaves the scan
    after the run that holds its overall crossing: there every bound is
    below the target, so each per-configuration crossing is already
    recorded. Bound monotonicity in m is not assumed. T comes from each
    distinct mu, Q from each distinct lambda and T; a row's key, its place in
    the run and its T and Q indices, sorts as (m, T, Q) and fits int64 for any m.
    """
    mu_index, lam_index = {}, {}  # each distinct value's index, in first-seen order
    mu_at = np.array([mu_index.setdefault(mu, len(mu_index)) for mu, _ in cells], dtype=np.intp)
    lam_at = np.array([lam_index.setdefault(lam, len(lam_index)) for _, lam in cells], dtype=np.intp)
    mus, lams = [_mu(mu) for mu in mu_index], [_lam(lam) for lam in lam_index]  # range checks
    names = [cfg.value for cfg in AdversaryConfig] + ["overall"]
    missing = len(ms)  # the found index of a crossing not found
    found, open_cells = np.full((len(names), len(cells)), missing), np.arange(len(cells))
    for lo in range(0, len(ms), _RUN):
        if not len(open_cells):
            break
        run = np.array(ms[lo : lo + _RUN])
        # _thresholds at lambda = 1 gives T alone, and at mu = 1 with m = T, Q at each T
        run_ints = run.astype(object)
        T = np.array([_thresholds(mu, 1, run_ints)[0] for mu in mus], dtype=np.int64)
        t_values, t_at = np.unique(T, return_inverse=True)
        t_ints = t_values.astype(object)
        Q = np.array([_thresholds(1, lam, t_ints)[1] for lam in lams], dtype=np.int64)
        q_values, q_at = np.unique(Q, return_inverse=True)
        t_cell = t_at.reshape(T.shape)[mu_at[open_cells]]  # (open cells, run)
        q_cell = q_at.reshape(Q.shape)[lam_at[open_cells, None], t_cell]
        key = (np.arange(len(run)) * len(t_values) + t_cell) * len(q_values) + q_cell
        keys = np.unique(key)
        index = np.searchsorted(keys, key)
        at_m, at_t = divmod(keys // len(q_values), len(t_values))
        rows = np.stack([run[at_m], t_values[at_t], q_values[keys % len(q_values)]], axis=1)
        s_open = np.zeros(len(rows), dtype=bool)  # rows of a cell still without its S crossing
        s_open[index[found[names.index(AdversaryConfig.S_FAULTY.value), open_cells] == missing]] = True
        no_faulty = _below(AdversaryConfig.NO_FAULTY, rows, np.ones(len(rows), dtype=bool), p_target)
        r0 = _below(AdversaryConfig.R0_FAULTY, rows, no_faulty, p_target)
        s = _below(AdversaryConfig.S_FAULTY, rows, no_faulty & (s_open | r0), p_target)
        below = np.stack([no_faulty, s, r0])[:, index]
        below = np.concatenate([below, below.all(axis=0, keepdims=True)])
        first = np.where(below.any(axis=2), lo + below.argmax(axis=2), missing)
        found[:, open_cells] = np.minimum(found[:, open_cells], first)
        open_cells = open_cells[found[-1, open_cells] == missing]
    return [dict(zip(names, [ms[i] if i < missing else NOT_FOUND for i in at])) for at in found.T.tolist()]


def _below(cfg: AdversaryConfig, rows: np.ndarray, keep: np.ndarray, p_target: float) -> np.ndarray:
    """Whether cfg's last report (exact or UPPER) is below p_target on each
    row that keep marks, from one `_report_rows` call; False elsewhere."""
    below = np.zeros(len(rows), dtype=bool)
    if keep.any():
        below[keep] = [*analytics._report_rows(cfg, rows[keep]).values()][-1] < p_target
    return below


def m_min_table(
    mu,
    lam,
    p_target: float,
    m_lo: int = 1,
    m_hi: int = 400,
    require_region: bool = True,
) -> dict[str, Verdict]:
    """Smallest m in [m_lo, m_hi] at which each configuration's upper bound,
    and all three at once ("overall"), fall below p_target.

    Parameters outside the guaranteed region are rejected before any bound
    is evaluated, unless require_region=False, which reproduces the
    heatmap's grey cells.
    """
    _check_scan(p_target, m_lo, m_hi)
    if require_region and not in_guaranteed_region(mu, lam):
        raise ParameterError(f"(mu={mu}, lambda={lam}) outside the guaranteed exponential-security region")
    return _scan([(mu, lam)], p_target, range(m_lo, m_hi + 1))[0]


def m_min_upper(
    mu,
    lam,
    p_target: float,
    m_lo: int = 1,
    m_hi: int = 400,
    require_region: bool = True,
) -> Verdict:
    """Smallest m in [m_lo, m_hi] with every upper bound below p_target
    (the "overall" row of m_min_table)."""
    return m_min_table(mu, lam, p_target, m_lo, m_hi, require_region)["overall"]


def even_grid(lo, hi, steps: int) -> list[Fraction]:
    """steps evenly spaced exact rationals from lo to hi > lo, both included."""
    if not _is_count(steps) or steps < 2:
        raise ValueError(f"a grid needs at least 2 steps, got {steps}")
    lo, hi = _fraction(lo, "lo"), _fraction(hi, "hi")
    if not lo < hi:
        raise ValueError(f"a grid needs lo < hi, got [{lo}, {hi}]")
    return [lo + (hi - lo) * Fraction(i, steps - 1) for i in range(steps)]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (mu, lambda) grid with candidate m values and a target."""

    mu_range: tuple[Fraction, Fraction, int]  # (lo, hi, steps)
    lambda_range: tuple[Fraction, Fraction, int]
    m_candidates: Sequence[int]
    p_target: float

    def __post_init__(self):
        # each axis is built once, here, where building it checks its range
        object.__setattr__(self, "_axes", tuple(even_grid(*axis) for axis in (self.mu_range, self.lambda_range)))
        # an iterator would be used up here, and grid_search needs the counts again
        ms = list(self.m_candidates) if isinstance(self.m_candidates, (Sequence, np.ndarray)) else []
        if not ms or not all(map(_is_count, ms)) or ms != sorted(set(ms)):
            raise ValueError("m_candidates must be a non-empty, strictly ascending sequence of positive counts")
        _check_target(self.p_target)
        object.__setattr__(self, "m_candidates", tuple(map(int, ms)))  # frozen; Verdicts are Python ints

    def mu_values(self) -> list[Fraction]:
        return list(self._axes[0])

    def lambda_values(self) -> list[Fraction]:
        return list(self._axes[1])


def grid_search(g: GridSpec) -> list[tuple[Fraction, Fraction, Verdict]]:
    """Evaluate every cell: OUTSIDE_REGION, the minimal sufficient candidate
    m, or NOT_FOUND. Ordered row-major by grid indices (mu outer)."""
    mus, lams = g.mu_values(), g.lambda_values()
    cells = [(mu, lam, inside) for mu, row in zip(mus, _region_grid(mus, lams)) for lam, inside in zip(lams, row)]
    found = iter(_scan([(mu, lam) for mu, lam, inside in cells if inside], g.p_target, g.m_candidates))
    return [(mu, lam, next(found)["overall"] if inside else OUTSIDE_REGION) for mu, lam, inside in cells]
