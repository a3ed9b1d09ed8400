"""Resource optimization over the (mu, lambda) plane.

Finds the minimal number of resource states meeting a failure-probability
target, from the analytic bounds only (never Monte-Carlo estimates). Grid
searches reproduce the heatmap view: grey cells outside the guaranteed
region, integer cells where a candidate m suffices, NOT_FOUND otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .analytics import pf_no_faulty_exact, pf_R_bounds, pf_S_bounds
from .protocol import ParameterError, ProtocolParams
from .security import in_guaranteed_region

NOT_FOUND = "NOT_FOUND"
OUTSIDE_REGION = "OUTSIDE_REGION"
Verdict = Union[int, str]

# Exact/upper failure probability of each configuration, in report order.
_UPPER_BOUNDS = (
    ("no-faulty", lambda p: pf_no_faulty_exact(p).value),
    ("s-faulty", lambda p: pf_S_bounds(p)[1].value),
    ("r0-faulty", lambda p: pf_R_bounds(p)[1].value),
)


def worst_upper_bound(mu, lam, m: int) -> float:
    """max over configurations of the exact/upper failure probability."""
    p = ProtocolParams.create(mu, lam, m)
    return max(bound(p) for _, bound in _UPPER_BOUNDS)


def _check_scan(p_target: float, m_lo: int, m_hi: int) -> None:
    """Reject a target outside (0, 1] or an m window other than 1 <= m_lo <= m_hi."""
    if not 0 < p_target <= 1:
        raise ValueError(f"p_target must be a probability in (0, 1], got {p_target}")
    if m_lo > m_hi or m_lo < 1:
        raise ValueError(f"need 1 <= m_lo <= m_hi, got [{m_lo}, {m_hi}]")


def _crossings(mu, lam, p_target: float, ms: Iterable[int]) -> dict[str, Verdict]:
    """First m of the ascending ms where each configuration's bound, and all
    three at once ("overall"), drop below p_target; NOT_FOUND where none does.

    Each bound is evaluated once per m. The scan stops at the overall
    crossing: there every bound is below the target, so each per-configuration
    crossing is already recorded. Bound monotonicity in m is not assumed.
    """
    out: dict[str, Verdict] = {name: NOT_FOUND for name, _ in _UPPER_BOUNDS}
    out["overall"] = NOT_FOUND
    for m in ms:
        p = ProtocolParams.create(mu, lam, m)
        below = {name: bound(p) < p_target for name, bound in _UPPER_BOUNDS}
        for name, crossed in below.items():
            if crossed and out[name] == NOT_FOUND:
                out[name] = m
        if all(below.values()):
            out["overall"] = m
            break
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
    return _crossings(mu, lam, p_target, range(m_lo, m_hi + 1))


def config_crossings(mu, lam, p_target: float, m_lo: int, m_hi: int) -> dict[str, Verdict]:
    """First m where each per-configuration bound drops below p_target."""
    table = m_min_table(mu, lam, p_target, m_lo, m_hi, require_region=False)
    return {name: table[name] for name, _ in _UPPER_BOUNDS}


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
    if steps < 2:
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
            if not (lo < hi and steps >= 2):
                raise ValueError("grid ranges must be non-degenerate with at least 2 steps")
        if list(self.m_candidates) != sorted(set(self.m_candidates)):
            raise ValueError("m_candidates must be strictly ascending")
        if not 0 < self.p_target <= 1:
            raise ValueError("p_target must be a probability in (0, 1]")

    def mu_values(self) -> list[Fraction]:
        return even_grid(*self.mu_range)

    def lambda_values(self) -> list[Fraction]:
        return even_grid(*self.lambda_range)


def grid_search(g: GridSpec) -> list[tuple[Fraction, Fraction, Verdict]]:
    """Evaluate every cell: OUTSIDE_REGION, the minimal sufficient candidate
    m, or NOT_FOUND. Ordered row-major by grid indices (mu outer)."""
    table: list[tuple[Fraction, Fraction, Verdict]] = []
    for mu in g.mu_values():
        for lam in g.lambda_values():
            if in_guaranteed_region(mu, lam):
                verdict = _crossings(mu, lam, g.p_target, g.m_candidates)["overall"]
            else:
                verdict = OUTSIDE_REGION
            table.append((mu, lam, verdict))
    return table
