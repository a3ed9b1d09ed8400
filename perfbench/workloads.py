"""The four benchmark workloads and the checks on their answers.

Queries go through `wbcsim.cli.main(argv)` in-process, as a user of the
command line would issue them; the library calls of `exact-oracle` have no
command-line form. Every reference value a check needs is either a known
constant from the paper or computed outside the timed phase.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from scipy.stats import binom

import wbcsim.analytics as analytics
import wbcsim.adversary as adversary
import wbcsim.cli as cli
import wbcsim.security as security
from wbcsim.protocol import AdversaryConfig, ProtocolParams

from harness import CheckFailed, Op
from tracer import LADDER

MU, LAM = "0.272", "0.94"
CONFIGS = ("no-faulty", "s-faulty", "r0-faulty")
SIM_M = 280
SIM_TRIALS = 10_000
ORACLE_MU, ORACLE_LAM = "0.3", "0.8"
ORACLE_M = 5
STRATEGY_M = 4
EXACT_MS = range(1, 61)


@dataclass(frozen=True)
class CliResult:
    stdout: str
    stderr: str


class CliError(Exception):
    """The command line returned a non-zero exit code."""


def cli_call(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliError(f"exit {rc}: {err.getvalue().strip()}")
    return CliResult(out.getvalue(), err.getvalue())


def _rows(result: CliResult) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(result.stdout)))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _cli_op(group: str, argv: list[str], check: Callable) -> Op:
    return Op(group, " ".join(argv), functools.partial(cli_call, argv), check)


# -- design -------------------------------------------------------------------

MMIN_ARGV = ["mmin", "--mu", MU, "--lambda", LAM, "--pft", "0.05", "--m-lo", "1", "--m-hi", "400", "--per-config"]
MMIN_EXPECTED = {"no-faulty": "143", "s-faulty": "246", "r0-faulty": "280", "overall": "280"}


def _check_mmin(result: CliResult) -> None:
    got = {row["config"]: row["m_min"] for row in _rows(result)}
    _require(got == MMIN_EXPECTED, f"m_min {got} != {MMIN_EXPECTED}")


def _check_optimize(result: CliResult) -> None:
    rows = _rows(result)
    mus = sorted({float(r["mu"]) for r in rows})
    lams = sorted({float(r["lambda"]) for r in rows})
    _require(len(rows) == 49 and len(mus) == 7 and len(lams) == 7, "optimize grid is not the default 7x7")
    cells = {(mus.index(float(r["mu"])), lams.index(float(r["lambda"]))) for r in rows if r["verdict"] == "280"}
    target = (mus.index(0.272), lams.index(0.94)) if 0.272 in mus and 0.94 in lams else None
    _require(target in cells, "(0.272, 0.94) is not a 280-valued cell")
    seen, stack = set(), [target]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        stack.extend(n for n in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)) if n in cells)
    _require(seen == cells, "the 280-valued cells are not contiguous")


def design(seed: int) -> list[Op]:
    return [_cli_op("mmin_s", MMIN_ARGV, _check_mmin), _cli_op("optimize_s", ["optimize"], _check_optimize)]


# -- large-m ------------------------------------------------------------------


def _check_curve_point(cfg: str, m: int, result: CliResult) -> None:
    rows = _rows(result)
    values = {row["kind"]: float(row["value"]) for row in rows}
    _require(all(int(row["m"]) == m and row["config"] == cfg for row in rows), "rows for another (config, m)")
    _require(all(0 <= v <= 1 for v in values.values()), f"value outside [0, 1]: {values}")
    if cfg == "no-faulty":
        _require(set(values) == {"exact"}, f"kinds {sorted(values)}")
        t = math.ceil(Fraction(MU) * m)
        ref = float(binom.cdf(t - 1, m, 1 / 3))
        _require(math.isclose(values["exact"], ref, rel_tol=1e-9), f"{values['exact']!r} != binom.cdf {ref!r}")
        _require(values["exact"] <= security.chernoff_no_faulty(MU, m), "exceeds the Chernoff bound")
        return
    _require(set(values) == {"lower", "upper"}, f"kinds {sorted(values)}")
    chernoff = security.chernoff_S(MU, LAM, m) if cfg == "s-faulty" else security.chernoff_R(MU, LAM, m)
    _require(values["lower"] <= values["upper"] <= chernoff, f"not lower <= upper <= Chernoff {chernoff!r}: {values}")


def large_m(seed: int) -> list[Op]:
    return [
        _cli_op(
            "curve_s",
            ["exact", "--config", cfg, "--mu", MU, "--lambda", LAM, "--m", str(m), "--kind", "both"],
            functools.partial(_check_curve_point, cfg, m),
        )
        for cfg in CONFIGS
        for m in LADDER
    ]


# -- simulate -----------------------------------------------------------------


def _check_estimate(interval: tuple[float, float], result: CliResult) -> None:
    (row,) = _rows(result)
    lo, hi = interval
    est, n = float(row["estimate"]), int(row["N"])
    q = min(max(est, lo), hi)
    sigma = math.sqrt(q * (1 - q) / n)
    _require(lo - 4 * sigma <= est <= hi + 4 * sigma, f"estimate {est} outside [{lo}, {hi}] +- 4 stderr {sigma}")


def simulate(seed: int) -> list[Op]:
    # The analytic interval is computed here, before the timed phase.
    p = ProtocolParams.create(MU, LAM, SIM_M)
    nf = float(analytics.pf_no_faulty_exact(p).value)
    intervals = {
        "no-faulty": (nf, nf),
        "s-faulty": tuple(float(r.value) for r in analytics.pf_S_bounds(p)),
        "r0-faulty": tuple(float(r.value) for r in analytics.pf_R_bounds(p)),
    }
    return [
        _cli_op(
            "simulate_s",
            ["simulate", "--config", cfg, "--mu", MU, "--lambda", LAM, "--m", str(SIM_M),
             "--trials", str(SIM_TRIALS), "--seed", str(seed), "--jobs", "1"],
            functools.partial(_check_estimate, intervals[cfg]),
        )
        for cfg in CONFIGS
    ]


# -- exact-oracle -------------------------------------------------------------


def _exact_formulas(p: ProtocolParams):
    return (
        analytics.pf_no_faulty_exact(p, exact=True),
        analytics.pf_S_bounds(p, exact=True),
        analytics.pf_R_bounds(p, exact=True),
    )


def _exact_value(cfg: str, kind: str, p: ProtocolParams) -> Fraction:
    nf, s_bounds, r_bounds = _exact_formulas(p)
    if cfg == "no-faulty":
        return nf.value
    return (s_bounds if cfg == "s-faulty" else r_bounds)[0 if kind == "lower" else 1].value


def _check_oracle(cfg: str, kind: str, p: ProtocolParams, result: CliResult) -> None:
    (row,) = _rows(result)
    want = _exact_value(cfg, kind, p)
    _require(Fraction(row["exact"]) == want, f"oracle {row['exact']} != exact formula {want}")


def _check_strategy(cfg: AdversaryConfig, p: ProtocolParams, best: Fraction) -> None:
    name = cfg.value
    lower, upper = _exact_value(name, "lower", p), _exact_value(name, "upper", p)
    _require(lower <= best <= upper, f"best strategy {best} outside exact bounds [{lower}, {upper}]")


def _check_exact(p: ProtocolParams, reports) -> None:
    nf, (s_lo, s_hi), (r_lo, r_hi) = reports
    floats = (analytics.pf_no_faulty_exact(p), *analytics.pf_S_bounds(p), *analytics.pf_R_bounds(p))
    for got, approx in zip((nf, s_lo, s_hi, r_lo, r_hi), floats):
        _require(isinstance(got.value, Fraction) and 0 <= got.value <= 1, f"m={p.m}: {got.value!r}")
        _require(abs(float(got.value) - approx.value) <= 1e-9, f"m={p.m}: exact {got.value} vs float {approx.value}")
    _require(s_lo.value <= s_hi.value and r_lo.value <= r_hi.value, f"m={p.m}: lower > upper")


def exact_oracle(seed: int) -> list[Op]:
    ops = []
    p_oracle = ProtocolParams.create(ORACLE_MU, ORACLE_LAM, ORACLE_M)
    for cfg, kind in (("no-faulty", "upper"), ("s-faulty", "lower"), ("s-faulty", "upper"),
                      ("r0-faulty", "lower"), ("r0-faulty", "upper")):
        argv = ["oracle", "--config", cfg, "--mu", ORACLE_MU, "--lambda", ORACLE_LAM, "--m", str(ORACLE_M)]
        if cfg != "no-faulty":
            argv += ["--kind", kind]
        ops.append(_cli_op("oracle_s", argv, functools.partial(_check_oracle, cfg, kind, p_oracle)))
    p_strategy = ProtocolParams.create(ORACLE_MU, ORACLE_LAM, STRATEGY_M)
    for cfg in (AdversaryConfig.S_FAULTY, AdversaryConfig.R0_FAULTY):
        ops.append(
            Op(
                "oracle_s",
                f"best_failure_probability_bruteforce {cfg.value} m={STRATEGY_M}",
                lambda cfg=cfg: adversary.best_failure_probability_bruteforce(cfg, p_strategy),
                functools.partial(_check_strategy, cfg, p_strategy),
            )
        )
    for m in EXACT_MS:
        p = ProtocolParams.create(ORACLE_MU, ORACLE_LAM, m)
        ops.append(Op("exact_bounds_s", f"exact formulas m={m}", functools.partial(_exact_formulas, p),
                      functools.partial(_check_exact, p)))
    return ops


# Groups reported as a rate: group -> (figure name, work units per pass).
RATES = {"simulate_s": ("trials_per_s", len(CONFIGS) * SIM_TRIALS)}


def pass_figures(groups: dict[str, float]) -> dict[str, tuple[float, str]]:
    """A workload's own end-to-end figures for one pass: seconds per group,
    or work per second for the groups in RATES."""
    figures = {}
    for group, seconds in groups.items():
        if group in RATES:
            name, work = RATES[group]
            figures[name] = (work / seconds, "1/s")
        else:
            figures[group] = (seconds, "s")
    return figures


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {"design": design, "large-m": large_m, "simulate": simulate, "exact-oracle": exact_oracle}
