"""Command-line front end.

Every analysis is a subcommand emitting CSV or JSON. mu and lambda are
decimal strings parsed to exact rationals before threshold math; floats are
accepted only with --inexact. Exit codes: 0 success, 2 usage error,
3 parameter-domain error, 4 input-file error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import analytics, metrics, montecarlo, optimizer, security
from .analytics import BoundKind
from .protocol import (
    ABORT,
    AdversaryConfig,
    ParameterError,
    ProtocolParams,
    classify_broadcast,
    classify_weak_broadcast,
)

OUTPUT_DIR_ENV = "WBCSIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAMETER = 3
EXIT_INPUT = 4


_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)")


def _parse_real(text: str, inexact: bool) -> Fraction | float:
    if inexact:
        value = float(text)
        if not math.isfinite(value):
            raise ParameterError(f"{text!r} is not a finite number")
        return value
    if not _DECIMAL_RE.fullmatch(text):
        raise ParameterError(f"{text!r} is not a plain decimal; pass --inexact to allow float parsing")
    return Fraction(text)


def _parse_m_list(text: str) -> list[int]:
    """Comma list with optional a..b ranges, e.g. '50,100,270..300'."""
    values: list[int] = []
    for part in text.split(","):
        if ".." in part:
            try:
                lo, hi = map(int, part.split(".."))
            except ValueError:  # not two ints: '1..3..5', '1..', '..5', 'a..b'
                raise ValueError(f"invalid m range {part!r} in {text!r}") from None
            if lo > hi:
                raise ValueError(f"inverted m range {part!r} in {text!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(part))
    if not values or any(v < 1 for v in values):
        raise ValueError(f"invalid m list {text!r}")
    return values


def _output_path(args, suffix: str) -> str | None:
    if args.output is None:
        return None
    out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{args.output}{suffix}")


def _emit_table(header: list[str], rows: list[list], args) -> None:
    """Write rows as CSV or JSON to stdout or the --output file."""
    if args.format == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
        suffix = ".json"
    else:
        lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
        suffix = ".csv"
    path = _output_path(args, suffix)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_manifest(args, payload: dict) -> None:
    path = _output_path(args, ".manifest.json")
    if path is None:
        return
    payload = dict(payload, command=args.command, timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _add_common(sub, mu_lambda: bool = True) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--output", default=None, help="output file stem (under $WBCSIM_OUTPUT_DIR)")
    if mu_lambda:
        sub.add_argument("--mu", required=True)
        sub.add_argument("--lambda", dest="lam", required=True)
        sub.add_argument("--inexact", action="store_true", help="allow float parsing of --mu/--lambda")


def _params_from(args, m: int) -> ProtocolParams:
    return ProtocolParams.create(_parse_real(args.mu, args.inexact), _parse_real(args.lam, args.inexact), m)


def _cmd_simulate(args) -> int:
    cfg = AdversaryConfig(args.config)
    rows = []
    for m in _parse_m_list(args.m):
        r = montecarlo.estimate_pf(cfg, _params_from(args, m), args.trials, args.seed, jobs=args.jobs)
        rows.append([m, cfg.value, r.n_trials, repr(r.estimate), repr(r.stderr), r.seed])
    _emit_table(["m", "config", "N", "estimate", "stderr", "seed"], rows, args)
    _write_manifest(args, {"mu": args.mu, "lambda": args.lam, "m": args.m, "trials": args.trials, "seed": args.seed})
    return EXIT_OK


def _cmd_exact(args) -> int:
    cfg = AdversaryConfig(args.config)
    rows = []
    for m in _parse_m_list(args.m):
        for report in analytics.failure_reports(cfg, _params_from(args, m)):
            # no-faulty has one exact report, shown whatever --kind asks for
            if report.kind is BoundKind.EXACT or args.kind in ("both", report.kind.value):
                rows.append([m, cfg.value, report.kind.value, repr(float(report.value))])
    _emit_table(["m", "config", "kind", "value"], rows, args)
    _write_manifest(args, {"mu": args.mu, "lambda": args.lam, "m": args.m, "config": args.config})
    return EXIT_OK


def _cmd_bounds(args) -> int:
    mu = _parse_real(args.mu, args.inexact)
    lam = _parse_real(args.lam, args.inexact)
    rows = []
    for m in _parse_m_list(args.m):
        rows.append([m, "no-faulty", repr(security.chernoff_no_faulty(mu, m))])
        rows.append([m, "s-faulty", repr(security.chernoff_S(mu, lam, m))])
        rows.append([m, "r0-faulty", repr(security.chernoff_R(mu, lam, m))])
    _emit_table(["m", "config", "bound"], rows, args)
    _write_manifest(args, {"mu": args.mu, "lambda": args.lam, "m": args.m})
    return EXIT_OK


def _cmd_optimize(args) -> int:
    spec = optimizer.GridSpec(
        mu_range=(Fraction(args.mu_lo), Fraction(args.mu_hi), args.mu_steps),
        lambda_range=(Fraction(args.lambda_lo), Fraction(args.lambda_hi), args.lambda_steps),
        m_candidates=_parse_m_list(args.m),
        p_target=args.pft,
    )
    table = optimizer.grid_search(spec)
    rows = [[float(mu), float(lam), verdict] for mu, lam, verdict in table]
    _emit_table(["mu", "lambda", "verdict"], rows, args)
    manifest = {
        "mu_range": [str(spec.mu_range[0]), str(spec.mu_range[1]), spec.mu_range[2]],
        "lambda_range": [str(spec.lambda_range[0]), str(spec.lambda_range[1]), spec.lambda_range[2]],
        "m_candidates": spec.m_candidates,
        "p_target": spec.p_target,
        "seed": None,
        "timestamp": None,  # set by _write_manifest; listed here to keep its place before "command"
    }
    _write_manifest(args, manifest)
    return EXIT_OK


def _cmd_mmin(args) -> int:
    table = optimizer.m_min_table(
        _parse_real(args.mu, args.inexact),
        _parse_real(args.lam, args.inexact),
        args.pft,
        args.m_lo,
        args.m_hi,
        require_region=not args.no_region_check,
    )
    if args.per_config:
        _emit_table(["config", "m_min"], [[name, value] for name, value in table.items()], args)
    else:
        print(table["overall"])
    _write_manifest(args, {"mu": args.mu, "lambda": args.lam, "p_target": args.pft, "m_min": table["overall"]})
    return EXIT_OK


def _cmd_truth_table(args) -> int:
    if args.kind == "broadcast":
        values, classify = (0, 1), classify_broadcast
    else:
        values, classify = (0, 1, ABORT), classify_weak_broadcast
    rows = []
    for cfg, y_s, y0, y1 in itertools.product(AdversaryConfig, (0, 1), values, values):
        shown = ["abort" if v is ABORT else v for v in (y0, y1)]
        rows.append([cfg.value, y_s, *shown, classify(cfg, y_s, y0, y1).value])
    _emit_table(["config", "y_S", "y0", "y1", "outcome"], rows, args)
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    out: dict[str, float] = {}
    if args.counts:
        with open(args.counts) as fh:
            dist = metrics.ingest_counts(fh)
        out["classical_fidelity"] = metrics.classical_fidelity(dist, metrics.BitstringDistribution.ideal())
    if args.density:
        with open(args.density) as fh:
            rho = metrics.ingest_density_matrix(fh)
        out["quantum_fidelity"] = metrics.quantum_fidelity_pure_target(rho)
    if not out:
        raise ParameterError("fidelity needs --counts and/or --density")
    _emit_table(["metric", "value"], [[k, v] for k, v in out.items()], args)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = AdversaryConfig(args.config)
    p = _params_from(args, args.m)
    report = analytics.pf_bruteforce(cfg, p, kind=BoundKind(args.kind))
    rows = [[args.m, cfg.value, report.kind.value, str(report.value), repr(float(report.value))]]
    _emit_table(["m", "config", "kind", "exact", "value"], rows, args)
    return EXIT_OK


def _cmd_region(args) -> int:
    lams = optimizer.even_grid(Fraction(1, 2), Fraction(1), args.steps)
    rows = []
    for mu in optimizer.even_grid(Fraction(0), Fraction(1, 3), args.steps):
        for lam in lams:
            rows.append([float(mu), float(lam), int(security.in_guaranteed_region(mu, lam))])
    _emit_table(["mu", "lambda", "inside"], rows, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wbcsim", description="Weak broadcast protocol analysis toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="Monte-Carlo failure probability sweep")
    _add_common(sim)
    sim.add_argument("--config", choices=[c.value for c in AdversaryConfig], required=True)
    sim.add_argument("--m", required=True, help="comma list / a..b ranges of m values")
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--jobs", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    exact = subs.add_parser("exact", help="analytic failure probability curves")
    _add_common(exact)
    exact.add_argument("--config", choices=[c.value for c in AdversaryConfig], required=True)
    exact.add_argument("--m", required=True)
    exact.add_argument("--kind", choices=["lower", "upper", "both"], default="upper")
    exact.set_defaults(func=_cmd_exact)

    bounds = subs.add_parser("bounds", help="asymptotic Chernoff bounds")
    _add_common(bounds)
    bounds.add_argument("--m", required=True)
    bounds.set_defaults(func=_cmd_bounds)

    opt = subs.add_parser("optimize", help="(mu, lambda) grid search for minimal m")
    _add_common(opt, mu_lambda=False)
    opt.add_argument("--mu-lo", default="0.269")
    opt.add_argument("--mu-hi", default="0.275")
    opt.add_argument("--mu-steps", type=int, default=7)
    opt.add_argument("--lambda-lo", default="0.9325")
    opt.add_argument("--lambda-hi", default="0.9475")
    opt.add_argument("--lambda-steps", type=int, default=7)
    opt.add_argument("--m", default="270..300")
    opt.add_argument("--pft", type=float, default=0.05)
    opt.set_defaults(func=_cmd_optimize)

    mmin = subs.add_parser("mmin", help="minimal m meeting a failure target at one (mu, lambda)")
    _add_common(mmin)
    mmin.add_argument("--pft", type=float, required=True)
    mmin.add_argument("--m-lo", type=int, default=1)
    mmin.add_argument("--m-hi", type=int, default=400)
    mmin.add_argument("--per-config", action="store_true")
    mmin.add_argument("--no-region-check", action="store_true")
    mmin.set_defaults(func=_cmd_mmin)

    tt = subs.add_parser("truth-table", help="emit the protocol outcome truth tables")
    _add_common(tt, mu_lambda=False)
    tt.add_argument("--kind", choices=["weak", "broadcast"], default="weak")
    tt.set_defaults(func=_cmd_truth_table)

    fid = subs.add_parser("fidelity", help="fidelity metrics from measurement files")
    _add_common(fid, mu_lambda=False)
    fid.add_argument("--counts", default=None, help="JSON bitstring -> count file")
    fid.add_argument("--density", default=None, help="JSON 16x16 [re, im] density matrix file")
    fid.set_defaults(func=_cmd_fidelity)

    oracle = subs.add_parser("oracle", help="small-m exhaustive enumeration oracle")
    _add_common(oracle)
    oracle.add_argument("--config", choices=[c.value for c in AdversaryConfig], required=True)
    oracle.add_argument("--m", type=int, required=True)
    oracle.add_argument("--kind", choices=["lower", "upper"], default="upper")
    oracle.set_defaults(func=_cmd_oracle)

    region = subs.add_parser("region", help="rasterize the exponential-security region")
    _add_common(region, mu_lambda=False)
    region.add_argument("--steps", type=int, default=200)
    region.set_defaults(func=_cmd_region)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: building one costs more than a large-m
    query, and parsing leaves no state on it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (metrics.InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
