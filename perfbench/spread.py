"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload simulate --first-seed 101

Runs `perfbench/run.py --trace 0` once per seed (ten seeds from
`--first-seed`, for `run_seconds` of BENCHMARK.json) for each named
workload, one run at a time. For every end-to-end metric it prints the
median, first and third quartile over the runs, the run count, and the
spread: the distance between the quartiles as a share of the median,
compared with a third of the metric's bound. The workload's own figures
(such as mmin_s or trials_per_s) and its per-pass error rate are summarized
across runs as well. Results are also written to
perfbench/out/spread-<workload>.json. Exits 1 if any spread is too wide.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + RUNS)
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            spread = (s["q3"] - s["q1"]) / s["median"]
            summary[name] = dict(s, spread=spread, values=values)
            ok = spread < bounds[name] / 3
            steady &= ok
            print(f"  {name:<14} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']} "
                  f"spread={spread:.4f} bound/3={bounds[name] / 3:.4f} {'ok' if ok else 'TOO WIDE'}")
        # The workload's own figures (per-run medians over passes) from the run records.
        records = [json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text()) for seed in seeds]
        figures = {name: fig["unit"] for name, fig in records[0]["figures"].items() if name not in bounds}
        figures["error_rate"] = "failed/attempted"
        for name, unit in figures.items():
            values = [r["error_rate"] if name == "error_rate" else r["figures"][name]["median"] for r in records]
            s = summary[name] = dict(summarize(values), values=values)
            print(f"  figure {name:<14} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"n={s['n']} runs {unit}")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}")
        (HERE / "out" / f"spread-{workload}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
