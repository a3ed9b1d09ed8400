"""Resource optimization over the (mu, lambda) plane.

Finds the minimal number of resource states meeting a failure-probability
target, from the analytic bounds only (never Monte-Carlo estimates). Grid
searches reproduce the heatmap view: grey cells outside the guaranteed
region, integer cells where a candidate m suffices, NOT_FOUND otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from . import analytics
from .protocol import _BLOCK_ELEMENTS, AdversaryConfig, ParameterError, ProtocolParams, _is_count, _thresholds
from .security import in_guaranteed_region

NOT_FOUND = "NOT_FOUND"
OUTSIDE_REGION = "OUTSIDE_REGION"
Verdict = Union[int, str]


def _check_scan(p_target: float, m_lo: int, m_hi: int) -> None:
    """Reject a target outside (0, 1] or an m window other than counts
    1 <= m_lo <= m_hi."""
    if not 0 < p_target <= 1:
        raise ValueError(f"p_target must be a probability in (0, 1], got {p_target}")
    if not (_is_count(m_lo) and _is_count(m_hi)) or m_lo > m_hi:
        raise ValueError(f"need 1 <= m_lo <= m_hi, got [{m_lo}, {m_hi}]")


def _blocks(ms: Iterable[int]) -> Iterator[list[int]]:
    """Consecutive runs of the ascending ms, each of at most
    protocol._BLOCK_ELEMENTS float row entries: rows x the largest m's
    `analytics._row_width` (one row if that is larger)."""
    block: list[int] = []
    for m in ms:
        if len(block) >= max(1, _BLOCK_ELEMENTS // analytics._row_width(m)):
            yield block
            block = []
        block.append(m)
    if block:
        yield block


def _scan(cells: Sequence[tuple], p_target: float, ms: Iterable[int]) -> list[dict[str, Verdict]]:
    """For each (mu, lambda) cell, the first m of the ascending ms where each
    configuration's bound, and all three at once ("overall"), drop below
    p_target; NOT_FOUND where none does.

    One scan over m serves every cell. The formulas read only (m, T, Q), so
    each block of m evaluates the distinct (m, T, Q) rows of the open cells
    (`np.unique`, in ascending m) once per configuration, in chunks as
    `_blocks` cuts them, and every cell reads its crossings from those
    rows. A cell leaves the scan after the block that holds its overall
    crossing: there every bound is below the target, so each
    per-configuration crossing is already recorded. Bound monotonicity in m
    is not assumed.
    """
    cells = [(p.mu, p.lam) for p in (ProtocolParams.create(mu, lam, 1) for mu, lam in cells)]  # range checks
    names = [cfg.value for cfg in AdversaryConfig] + ["overall"]
    out: list[dict[str, Verdict]] = [dict.fromkeys(names, NOT_FOUND) for _ in cells]
    open_cells = list(range(len(cells)))
    for block in _blocks(ms):
        if not open_cells:
            break
        m_column = np.array(block).astype(object)  # Python ints, also from numpy candidates
        keys = np.concatenate(
            [np.stack([m_column, *_thresholds(*cells[i], m_column)], axis=1) for i in open_cells]
        ).astype(np.int64)  # T and Q are at most m
        rows, index = np.unique(keys, axis=0, return_inverse=True)
        chunks = np.split(rows, np.cumsum([len(chunk) for chunk in _blocks(rows[:, 0])])[:-1])
        below = np.array(
            [
                np.concatenate([[*analytics._report_rows(cfg, chunk).values()][-1] for chunk in chunks])
                for cfg in AdversaryConfig
            ]
        )[:, index.reshape(len(open_cells), len(block))] < p_target
        below = np.concatenate([below, below.all(axis=0, keepdims=True)])
        crossed, at = below.any(axis=2), below.argmax(axis=2)
        for j, i in enumerate(open_cells):
            for k, name in enumerate(names):
                if crossed[k, j] and out[i][name] == NOT_FOUND:
                    out[i][name] = block[at[k, j]]
        open_cells = [i for i in open_cells if out[i]["overall"] == NOT_FOUND]
    return out


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


def config_crossings(mu, lam, p_target: float, m_lo: int, m_hi: int) -> dict[str, Verdict]:
    """First m where each per-configuration bound drops below p_target."""
    table = m_min_table(mu, lam, p_target, m_lo, m_hi, require_region=False)
    return {cfg.value: table[cfg.value] for cfg in AdversaryConfig}


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
    """steps evenly spaced exact rationals from lo to hi, both included."""
    if not _is_count(steps) or steps < 2:
        raise ValueError(f"a grid needs at least 2 steps, got {steps}")
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + (hi - lo) * Fraction(i, steps - 1) for i in range(steps)]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (mu, lambda) grid with candidate m values and a target."""

    mu_range: tuple[Fraction, Fraction, int]  # (lo, hi, steps)
    lambda_range: tuple[Fraction, Fraction, int]
    m_candidates: Sequence[int]
    p_target: float

    def __post_init__(self):
        for lo, hi, steps in (self.mu_range, self.lambda_range):
            if not (lo < hi and _is_count(steps) and steps >= 2):
                raise ValueError("grid ranges must be non-degenerate with at least 2 steps")
        ms = list(self.m_candidates)
        if not ms or not all(map(_is_count, ms)) or ms != sorted(set(ms)):
            raise ValueError("m_candidates must be a non-empty, strictly ascending list of positive counts")
        if not 0 < self.p_target <= 1:
            raise ValueError("p_target must be a probability in (0, 1]")

    def mu_values(self) -> list[Fraction]:
        return even_grid(*self.mu_range)

    def lambda_values(self) -> list[Fraction]:
        return even_grid(*self.lambda_range)


def grid_search(g: GridSpec) -> list[tuple[Fraction, Fraction, Verdict]]:
    """Evaluate every cell: OUTSIDE_REGION, the minimal sufficient candidate
    m, or NOT_FOUND. Ordered row-major by grid indices (mu outer)."""
    cells = [(mu, lam, in_guaranteed_region(mu, lam)) for mu in g.mu_values() for lam in g.lambda_values()]
    found = iter(_scan([(mu, lam) for mu, lam, inside in cells if inside], g.p_target, g.m_candidates))
    return [(mu, lam, next(found)["overall"] if inside else OUTSIDE_REGION) for mu, lam, inside in cells]
