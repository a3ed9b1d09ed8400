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
import platform
import re
import sys
import time
from fractions import Fraction
from typing import Sequence

import numpy

from . import __version__, analytics, metrics, montecarlo, optimizer, security
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
        raise ParameterError(f"{text!r} is not a plain decimal; --inexact allows floats for --mu and --lambda")
    return Fraction(text)


def _parse_m_list(text: str) -> list[int]:
    """Comma list with optional a..b ranges, e.g. '50,100,270..300'."""
    values: list[int] = []
    for part in text.split(","):
        is_range = ".." in part
        try:  # a plain part m is the range m..m
            lo, hi = map(int, part.split("..") if is_range else (part, part))
        except ValueError:  # not two ints: '1..3..5', '1..', '..5', 'a..b'; not one: 'abc', '', '2.5'
            raise ValueError(f"invalid m {'range ' if is_range else ''}{part!r} in {text!r}") from None
        if lo > hi:
            raise ValueError(f"inverted m range {part!r} in {text!r}")
        values.extend(range(lo, hi + 1))
    if not values or any(v < 1 for v in values):
        raise ValueError(f"invalid m list {text!r}")
    return values


def _output_path(args, suffix: str) -> str | None:
    if args.output is None:
        return None
    out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{args.output}{suffix}")


def _emit(text: str, args) -> None:
    """Write one data output, text in --format, to stdout or the --output file."""
    path = _output_path(args, f".{args.format}")
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _emit_table(header: list[str], rows: list[list], args) -> None:
    """Write rows as CSV or JSON to stdout or the --output file."""
    if args.format == "json":
        _emit(json.dumps([dict(zip(header, row)) for row in rows], indent=2), args)
    else:
        _emit("\n".join([",".join(header)] + [",".join(str(v) for v in row) for row in rows]), args)


def _write_manifest(args) -> None:
    """Beside an --output file, record the parsed command line, defaults
    included, so that it reruns to the same data, and the code that ran it."""
    path = _output_path(args, ".manifest.json")
    if path is None:
        return
    manifest = {key: value for key, value in vars(args).items() if key not in ("func", "format", "output")}
    manifest["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    import scipy  # here, not at start-up: see analytics._special
    manifest["versions"] = {
        "wbcsim": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
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


def _cmd_simulate(args) -> None:
    cfg = AdversaryConfig(args.config)
    rows = []
    for m in _parse_m_list(args.m):
        r = montecarlo.estimate_pf(cfg, _params_from(args, m), args.trials, args.seed, jobs=args.jobs)
        rows.append([m, cfg.value, r.n_trials, repr(r.estimate), repr(r.stderr), r.seed])
    _emit_table(["m", "config", "N", "estimate", "stderr", "seed"], rows, args)


def _cmd_exact(args) -> None:
    cfg = AdversaryConfig(args.config)
    ms = _parse_m_list(args.m)
    # each distinct m is one row of one block: a value depends on its row alone
    distinct = dict.fromkeys(ms)
    reports = dict(zip(distinct, analytics._reports(cfg, [_params_from(args, m) for m in distinct])))
    # no-faulty has one exact report, shown whatever --kind asks for
    rows = [
        [m, cfg.value, report.kind.value, repr(float(report.value))]
        for m in ms
        for report in reports[m]
        if report.kind is BoundKind.EXACT or args.kind in ("both", report.kind.value)
    ]
    _emit_table(["m", "config", "kind", "value"], rows, args)


def _cmd_bounds(args) -> None:
    mu = _parse_real(args.mu, args.inexact)
    lam = _parse_real(args.lam, args.inexact)
    rows = []
    for m in _parse_m_list(args.m):
        rows.append([m, "no-faulty", repr(security.chernoff_no_faulty(mu, m))])
        rows.append([m, "s-faulty", repr(security.chernoff_S(mu, lam, m))])
        rows.append([m, "r0-faulty", repr(security.chernoff_R(mu, lam, m))])
    _emit_table(["m", "config", "bound"], rows, args)


def _cmd_optimize(args) -> None:
    plain = functools.partial(_parse_real, inexact=False)
    spec = optimizer.GridSpec(
        mu_range=(plain(args.mu_lo), plain(args.mu_hi), args.mu_steps),
        lambda_range=(plain(args.lambda_lo), plain(args.lambda_hi), args.lambda_steps),
        m_candidates=_parse_m_list(args.m),
        p_target=args.pft,
    )
    table = optimizer.grid_search(spec)
    rows = [[float(mu), float(lam), verdict] for mu, lam, verdict in table]
    _emit_table(["mu", "lambda", "verdict"], rows, args)


def _cmd_mmin(args) -> None:
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
        _emit(json.dumps(table["overall"]) if args.format == "json" else str(table["overall"]), args)


def _cmd_truth_table(args) -> None:
    if args.kind == "broadcast":
        values, classify = (0, 1), classify_broadcast
    else:
        values, classify = (0, 1, ABORT), classify_weak_broadcast
    rows = []
    for cfg, y_s, y0, y1 in itertools.product(AdversaryConfig, (0, 1), values, values):
        shown = ["abort" if v is ABORT else v for v in (y0, y1)]
        rows.append([cfg.value, y_s, *shown, classify(cfg, y_s, y0, y1).value])
    _emit_table(["config", "y_S", "y0", "y1", "outcome"], rows, args)


def _cmd_fidelity(args) -> None:
    out: dict[str, float] = {}
    if args.counts:
        with open(args.counts, encoding="utf-8") as fh:
            dist = metrics.ingest_counts(fh)
        out["classical_fidelity"] = metrics.classical_fidelity(dist, metrics.BitstringDistribution.ideal())
    if args.density:
        with open(args.density, encoding="utf-8") as fh:
            rho = metrics.ingest_density_matrix(fh)
        out["quantum_fidelity"] = metrics.quantum_fidelity_pure_target(rho)
    if not out:
        raise ParameterError("fidelity needs --counts and/or --density")
    _emit_table(["metric", "value"], [[k, v] for k, v in out.items()], args)


def _cmd_oracle(args) -> None:
    cfg = AdversaryConfig(args.config)
    if args.m < 1:  # a usage error, as an m below 1 is for the other commands
        raise ValueError(f"invalid m {args.m}")
    p = _params_from(args, args.m)
    # no-faulty has one exact report, shown whatever --kind asks for
    [report] = [r for r in analytics.pf_bruteforce(cfg, p) if r.kind.value in ("exact", args.kind)]
    rows = [[args.m, cfg.value, report.kind.value, str(report.value), repr(float(report.value))]]
    _emit_table(["m", "config", "kind", "exact", "value"], rows, args)


def _cmd_region(args) -> None:
    mus = optimizer.even_grid(Fraction(0), Fraction(1, 3), args.steps)
    lams = optimizer.even_grid(Fraction(1, 2), Fraction(1), args.steps)
    inside = security._region_grid(mus, lams)
    rows = [[float(mu), float(lam), int(x)] for mu, row in zip(mus, inside) for lam, x in zip(lams, row)]
    _emit_table(["mu", "lambda", "inside"], rows, args)


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


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv as `_parser()` parses it. A subcommand's parser takes its own
    arguments directly: the whole parser would first scan and convert each
    of them to hand them on, about 40% of parsing a one-row `exact` query."""
    parser = _parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    if not argv or argv[0] not in subcommands:
        return parser.parse_args(argv)
    args, extra = subcommands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.func(args)
        _write_manifest(args)
        return EXIT_OK
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
