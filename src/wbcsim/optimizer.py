"""Resource optimization over the (mu, lambda) plane.

Finds the minimal number of resource states meeting a failure-probability
target, from the analytic bounds only (never Monte-Carlo estimates). Grid
searches reproduce the heatmap view: grey cells outside the guaranteed
region, integer cells where a candidate m suffices, NOT_FOUND otherwise.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence, Union

from .analytics import pf_no_faulty_exact, pf_R_bounds, pf_S_bounds
from .protocol import ParameterError, ProtocolParams, as_fraction
from .security import in_guaranteed_region

NOT_FOUND = "NOT_FOUND"
OUTSIDE_REGION = "OUTSIDE_REGION"
Verdict = Union[int, str]


def worst_upper_bound(mu, lam, m: int) -> float:
    """max over configurations of the exact/upper failure probability."""
    p = ProtocolParams.create(mu, lam, m)
    nf = pf_no_faulty_exact(p).value
    s_up = pf_S_bounds(p)[1].value
    r_up = pf_R_bounds(p)[1].value
    return max(nf, s_up, r_up)


def _check_scan(p_target: float, m_lo: int, m_hi: int) -> None:
    """Reject a target outside (0, 1] or an m window other than 1 <= m_lo <= m_hi."""
    if not 0 < p_target <= 1:
        raise ValueError(f"p_target must be a probability in (0, 1], got {p_target}")
    if m_lo > m_hi or m_lo < 1:
        raise ValueError(f"need 1 <= m_lo <= m_hi, got [{m_lo}, {m_hi}]")


def config_crossings(mu, lam, p_target: float, m_lo: int, m_hi: int) -> dict[str, Verdict]:
    """First m where each per-configuration bound drops below p_target."""
    _check_scan(p_target, m_lo, m_hi)
    out: dict[str, Verdict] = {}
    for name, fn in (
        ("no-faulty", lambda p: pf_no_faulty_exact(p).value),
        ("s-faulty", lambda p: pf_S_bounds(p)[1].value),
        ("r0-faulty", lambda p: pf_R_bounds(p)[1].value),
    ):
        out[name] = NOT_FOUND
        for m in range(m_lo, m_hi + 1):
            if fn(ProtocolParams.create(mu, lam, m)) < p_target:
                out[name] = m
                break
    return out


def m_min_upper(
    mu,
    lam,
    p_target: float,
    m_lo: int = 1,
    m_hi: int = 400,
    require_region: bool = True,
) -> Verdict:
    """Smallest m in [m_lo, m_hi] with every upper bound below p_target.

    Scans ascending and returns the first crossing (bound monotonicity in m
    is not assumed). Parameters outside the guaranteed region are rejected
    unless require_region=False, which reproduces the heatmap's grey cells.
    """
    _check_scan(p_target, m_lo, m_hi)
    if require_region and not in_guaranteed_region(mu, lam):
        raise ParameterError(f"(mu={mu}, lambda={lam}) outside the guaranteed exponential-security region")
    for m in range(m_lo, m_hi + 1):
        if worst_upper_bound(mu, lam, m) < p_target:
            return m
    return NOT_FOUND


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
        lo, hi, steps = self.mu_range
        lo, hi = as_fraction(lo), as_fraction(hi)
        return [lo + (hi - lo) * Fraction(i, steps - 1) for i in range(steps)]

    def lambda_values(self) -> list[Fraction]:
        lo, hi, steps = self.lambda_range
        lo, hi = as_fraction(lo), as_fraction(hi)
        return [lo + (hi - lo) * Fraction(j, steps - 1) for j in range(steps)]


def default_fine_grid(p_target: float = 0.05) -> GridSpec:
    """Fine grid straddling (0.272, 0.94) with candidates 270..300."""
    return GridSpec(
        mu_range=(Fraction("0.269"), Fraction("0.275"), 7),
        lambda_range=(Fraction("0.9325"), Fraction("0.9475"), 7),
        m_candidates=list(range(270, 301)),
        p_target=p_target,
    )


def grid_search(g: GridSpec) -> list[tuple[Fraction, Fraction, Verdict]]:
    """Evaluate every cell: OUTSIDE_REGION, the minimal sufficient candidate
    m, or NOT_FOUND. Ordered row-major by grid indices (mu outer)."""
    table: list[tuple[Fraction, Fraction, Verdict]] = []
    for mu in g.mu_values():
        for lam in g.lambda_values():
            if not in_guaranteed_region(mu, lam):
                table.append((mu, lam, OUTSIDE_REGION))
                continue
            verdict: Verdict = NOT_FOUND
            for m in g.m_candidates:
                if worst_upper_bound(mu, lam, m) < g.p_target:
                    verdict = m
                    break
            table.append((mu, lam, verdict))
    return table


def dump_heatmap_csv(table: list[tuple[Fraction, Fraction, Verdict]], fh: IO[str]) -> None:
    """Write heatmap rows: mu, lambda, verdict."""
    writer = csv.writer(fh)
    writer.writerow(["mu", "lambda", "verdict"])
    for mu, lam, verdict in table:
        writer.writerow([float(mu), float(lam), verdict])


def run_manifest(g: GridSpec, seed: int | None = None) -> str:
    """JSON manifest recording the grid spec, target, and timestamp."""
    return json.dumps(
        {
            "mu_range": [str(as_fraction(g.mu_range[0])), str(as_fraction(g.mu_range[1])), g.mu_range[2]],
            "lambda_range": [
                str(as_fraction(g.lambda_range[0])),
                str(as_fraction(g.lambda_range[1])),
                g.lambda_range[2],
            ],
            "m_candidates": list(g.m_candidates),
            "p_target": g.p_target,
            "seed": seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        indent=2,
    )
