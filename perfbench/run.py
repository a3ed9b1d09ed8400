"""wbcsim benchmark: one command, one closed-loop caller.

    python3 perfbench/run.py --workload design --seed 1 --seconds 15 --trace 0

Runs one workload of `workloads.WORKLOADS` against the package in `src/` of
the checkout this file sits in, with `--jobs 1` and BLAS/OpenMP threads
pinned to 1. Every answer is checked outside the timed phase.

With `--trace 0` it repeats passes over the workload's queries for
`--seconds` seconds and reports the end-to-end metrics: `setup_s`, the
median wall time of fresh interpreters that import wbcsim and build the CLI
parser; `pass_ref`, the median over passes of a pass's cost in reference
loops (each operation's wall time divided by the time of a fixed loop timed
around it, see `harness.SpeedProbe`), out of which the host's speed
cancels; and `peak_rss_mb`. Wall times in seconds are printed and recorded
beside them. With `--trace 1` it runs one traced pass between two untraced
ones and reports the per-layer metrics of the traced pass; the trace
overhead is its wall time minus the mean of the untraced two.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `attempted` and `failed`
count the operations of one pass. The lines before it print every figure
with its unit, quartiles and sample count, and the run record. A full
record (with every operation's time in every pass and, when traced, every
span) is written under `perfbench/out/`.
"""

from __future__ import annotations

import os

# Before numpy is imported, here or in a child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 6  # fresh interpreters timed before the passes, and again after them
SETUP_CODE = "import wbcsim.cli; wbcsim.cli.build_parser()"


def measure_setup(warm: bool) -> list[float]:
    """Wall time of fresh interpreters that import wbcsim and build the
    CLI parser. With `warm`, one untimed start first, so every timed one
    finds the bytecode cache written."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    if warm:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, walls: dict[str, float]) -> dict:
    import numpy
    import scipy

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "wall_s": walls,
        "rusage_self": {"user_s": usage.ru_utime, "sys_s": usage.ru_stime, "maxrss_kb": usage.ru_maxrss},
    }


def print_figure(name: str, values: list[float], unit: str) -> dict:
    s = harness.summarize(values)
    print(f"  {name:<16} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']} {unit}")
    return dict(s, unit=unit, values=values)


def report_failures(passes) -> None:
    seen = []
    for o in (o for p in passes for o in p):
        message = o.wrong or (o.error and f"{o.op.label}: {o.error}")
        if message and message not in seen:
            seen.append(message)
    for message in seen[:20]:
        print(f"  failed: {message}")


def import_wbcsim():
    """Import wbcsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "wbcsim" / "__init__.py").is_file():
        sys.exit(f"error: no wbcsim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import wbcsim

    if Path(wbcsim.__file__).resolve().parent != (SRC / "wbcsim").resolve():
        sys.exit(f"error: imported wbcsim from {wbcsim.__file__}, not from {SRC}")
    return wbcsim


def untraced_run(args, ops) -> tuple[dict, list, dict]:
    # Set-up is sampled on both sides of the passes, so a drift in machine
    # speed during the run moves it no more than the passes.
    setup = measure_setup(warm=True)
    passes = []
    with harness.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while True:
            passes.append(harness.run_pass(ops))
            if time.perf_counter() - t0 >= args.seconds:
                break
    setup += measure_setup(warm=False)
    for p in passes:
        harness.check_outcomes(p)
        for o in p:
            o.ref = probe.in_reference_loops(o)
    groups = [harness.group_seconds(p) for p in passes]
    pass_s = [sum(g.values()) for g in groups]
    pass_ref = [sum(o.ref for o in p) for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"end-to-end figures over {len(passes)} passes:")
    figures = {
        "setup_s": print_figure("setup_s", setup, "s"),
        "pass_ref": print_figure("pass_ref", pass_ref, "ref"),
        "pass_s": print_figure("pass_s", pass_s, "s"),
        "reference_loop_s": print_figure("reference_loop_s", list(probe.took), "s"),
    }
    from workloads import pass_figures

    per_pass = [pass_figures(g) for g in groups]
    for name, (_, unit) in per_pass[0].items():
        figures[name] = print_figure(name, [f[name][0] for f in per_pass], unit)
    figures["peak_rss_mb"] = print_figure("peak_rss_mb", [peak_rss_mb], "MB")
    metrics = {name: {"value": figures[name]["median"], "unit": figures[name]["unit"]}
               for name in ("setup_s", "pass_ref", "peak_rss_mb")}
    return metrics, passes, {"figures": figures, "wall_s": {"untraced": sum(pass_s)}}


def traced_run(args, ops) -> tuple[dict, list, dict]:
    # Untraced passes on both sides of the traced one, so a drift in machine
    # speed during the run cancels out of the overhead.
    before = harness.run_pass(ops)
    modules = {name.split(".", 1)[1] if "." in name else "__init__": mod
               for name, mod in sys.modules.items() if name.split(".")[0] == "wbcsim"}
    t = tracer.Tracer()
    t.install(modules)
    try:
        traced = harness.run_pass(ops)
    finally:
        t.uninstall()
    after = harness.run_pass(ops)
    passes = [before, traced, after]
    for p in passes:
        harness.check_outcomes(p)
    wall_untraced = (sum(o.seconds for o in before) + sum(o.seconds for o in after)) / 2
    wall_traced = sum(o.seconds for o in traced)
    values, absent = tracer.per_layer_metrics(t, wall_traced - wall_untraced)
    specs = tracer.per_layer_metric_specs()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    t.write(spans_path)

    print(f"per-layer figures of one traced pass ({len(t.start)} spans, written to {spans_path.relative_to(ROOT)}):")
    for name, unit, _ in specs:
        if values[name]:
            print(f"  {name:<56} {values[name]:.6g} {unit}")
    if absent:
        print(f"  absent (not found to trace): {', '.join(absent)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    extra = {"absent": absent, "spans": len(t.start), "wall_s": {"untraced": wall_untraced, "traced": wall_traced}}
    return metrics, passes, extra


def operation_record(ops, passes) -> list[dict]:
    """Per-operation times and failures of every pass, in pass order, so
    that runs can be compared operation by operation."""
    return [
        {
            "label": op.label,
            "group": op.group,
            "seconds": [p[i].seconds for p in passes],
            "ref": [p[i].ref for p in passes],
            "failed": [p[i].error or p[i].wrong for p in passes],
        }
        for i, op in enumerate(ops)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wbcsim = import_wbcsim()
    import workloads  # imports wbcsim, so only after import_wbcsim()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    random.Random(args.seed).shuffle(ops)
    print(f"workload {args.workload} (seed {args.seed})")
    print(f"closed loop, 1 caller, {len(ops)} operations per pass, wbcsim {wbcsim.__version__} from {SRC}")

    if args.trace:
        metrics, passes, extra = traced_run(args, ops)
    else:
        metrics, passes, extra = untraced_run(args, ops)

    t, consistent = harness.pass_tally(passes)
    print(f"operations per pass: attempted={t.attempted} failed={t.failed} (raised={t.raised}, wrong={t.wrong}) "
          f"error_rate={t.error_rate:.6g}; {len(passes)} passes, "
          f"{'the same tally in each' if consistent else 'TALLIES DIFFER'}")
    report_failures(passes)
    record = run_record(args, extra.pop("wall_s"))
    record.update(extra, attempted=t.attempted, failed=t.failed, raised=t.raised, wrong=t.wrong,
                  error_rate=t.error_rate, passes=len(passes), tally_consistent=consistent,
                  total=dataclasses.asdict(harness.tally([o for p in passes for o in p])),
                  operations=operation_record(ops, passes), metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("record " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "figures", "operations")}))
    correct = consistent and t.wrong == 0
    print(json.dumps({"correct": correct, "attempted": t.attempted, "failed": t.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
