"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 -m pytest perfbench/test_harness.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    t = tracer.Tracer()
    root = t.record("cli.main", 0.0, 10.0)
    a = t.record("optimizer.m_min_upper", 1.0, 5.0, parent=root)
    t.record("analytics.pf_S_bounds", 2.0, 3.5, parent=a)
    t.record("analytics.pf_R_bounds", 3.5, 4.0, parent=a)
    t.record("security.in_guaranteed_region", 6.0, 9.0, parent=root)
    assert list(tracer.self_times(t.start, t.end, t.parent)) == [3.0, 2.0, 1.5, 0.5, 3.0]


def test_per_layer_metrics_from_synthetic_spans():
    t = tracer.Tracer()
    q = t.record("cli.main", 0.0, 10.0)
    t.extra[q] = {"command": "exact", "rc": 0}
    key = ("mu", "lam", 2000)
    for start in (1.0, 3.0):
        i = t.record("analytics.pf_S_bounds", start, start + 1.0, parent=q)
        t.extra[i] = {"exact": False, "key": key}
    bad = t.record("analytics.pf_S_bounds", 6.0, 6.5, parent=q, error=True)
    t.extra[bad] = {"exact": True, "key": key}
    t.wrapped |= {"cli.main", "analytics.pf_S_bounds"}
    values, absent = tracer.per_layer_metrics(t, overhead_s=0.25)
    assert values["analytics.pf_S_bounds.calls"] == 3
    assert values["analytics.pf_S_bounds.errors"] == 1
    assert values["analytics.pf_S_bounds.self_s"] == pytest.approx(2.5)
    assert values["analytics.pf_S_bounds.ms.m2000"] == pytest.approx(1000.0)
    assert values["analytics.pf_S_bounds.calls_per_point"] == 3
    assert values["analytics.exact.self_s"] == pytest.approx(0.5)
    assert values["cli.main.self_s"] == pytest.approx(7.5)
    assert values["trace.overhead_s"] == 0.25
    assert "analytics.pf_S_bounds" not in absent and "analytics.pf_R_bounds" in absent


def _fake_package():
    """Two modules mimicking wbcsim: `source` defines functions and a class
    with a classmethod; `optimizer` re-binds one function by import."""
    source = types.ModuleType("fakepkg.source")
    exec(
        "def leaf(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return leaf(x) * 2\n"
        "def boom():\n"
        "    raise ValueError('boom')\n"
        "def _private():\n"
        "    return leaf(0)\n"
        "class Params:\n"
        "    @classmethod\n"
        "    def create(cls, m):\n"
        "        return (cls.__name__, leaf(m))\n",
        source.__dict__,
    )
    optimizer = types.ModuleType("fakepkg.optimizer")
    optimizer.leaf = source.leaf
    exec("def scan(n):\n    return [leaf(i) for i in range(n)]\n", optimizer.__dict__)
    return {"source": source, "optimizer": optimizer}


def test_tracer_wraps_rebound_names_records_errors_and_restores():
    modules = _fake_package()
    source, optimizer = modules["source"], modules["optimizer"]
    originals = (source.leaf, source.outer, optimizer.leaf, vars(source.Params)["create"])
    t = tracer.Tracer()
    t.install(modules)
    try:
        assert source.outer(1) == 4
        assert optimizer.scan(2) == [1, 2]
        assert source.Params.create(3) == ("Params", 4)
        with pytest.raises(ValueError):
            source.boom()
        assert source._private() == 1
    finally:
        t.uninstall()
    assert (source.leaf, source.outer, optimizer.leaf, vars(source.Params)["create"]) == originals
    assert source.leaf(1) == 2 and len(t.start) == 9  # no spans once uninstalled
    names = [t.names[i] for i in t.name_id]
    assert names == ["source.outer", "source.leaf", "optimizer.scan", "source.leaf", "source.leaf",
                     "source.Params.create", "source.leaf", "source.boom", "source.leaf"]
    parents = list(t.parent)
    assert parents == [-1, 0, -1, 2, 2, -1, 5, -1, -1]
    assert list(t.error) == [0, 0, 0, 0, 0, 0, 0, 1, 0]
    assert "source._private" not in t.wrapped


def test_failed_operations_are_counted_not_fatal():
    def wrong_check(result):
        if result != 42:
            raise harness.CheckFailed(f"{result} != 42")

    ops = [
        harness.Op("g", "ok", lambda: 42, wrong_check),
        harness.Op("g", "raises", lambda: 1 / 0, wrong_check),
        harness.Op("g", "wrong", lambda: 41, wrong_check),
    ]
    outcomes = harness.run_pass(ops)
    harness.check_outcomes(outcomes)
    tally = harness.tally(outcomes)
    assert (tally.attempted, tally.raised, tally.wrong, tally.failed) == (3, 1, 1, 2)
    assert tally.error_rate == pytest.approx(2 / 3)
    assert outcomes[1].error.startswith("ZeroDivisionError") and outcomes[1].result is None
    assert outcomes[2].wrong == "wrong: 41 != 42"
    assert set(harness.group_seconds(outcomes)) == {"g"}


def test_tally_counts_one_pass_and_flags_passes_that_differ():
    def check(result):
        if result != 42:
            raise harness.CheckFailed(f"{result} != 42")

    ops = [harness.Op("g", "ok", lambda: 42, check), harness.Op("g", "raises", lambda: 1 / 0, check)]
    passes = [harness.run_pass(ops) for _ in range(3)]
    for p in passes:
        harness.check_outcomes(p)
    tally, consistent = harness.pass_tally(passes)
    assert (tally.attempted, tally.failed, consistent) == (2, 1, True)
    flaky = [harness.run_pass(ops), harness.run_pass(ops[:1] + [harness.Op("g", "wrong", lambda: 41, check)])]
    for p in flaky:
        harness.check_outcomes(p)
    tally, consistent = harness.pass_tally(flaky)
    assert (tally.attempted, tally.failed, tally.wrong, consistent) == (2, 1, 1, False)


def test_speed_probe_divides_by_the_loop_time_around_an_operation():
    probe = harness.SpeedProbe()
    probe.at.extend([0.0, 1.0, 2.0, 3.0, 4.0])
    probe.took.extend([0.001, 0.002, 0.004, 0.002, 0.001])
    # A sample inside the span and one on each side of it.
    assert probe.reference_seconds(1.5, 2.5) == 0.002
    # A span between two samples takes its two neighbours.
    assert probe.reference_seconds(2.2, 2.4) == pytest.approx(0.003)
    op = harness.Op("g", "x", lambda: None, lambda r: None)
    assert probe.in_reference_loops(harness.Outcome(op, 0.4, start=2.1)) == pytest.approx(0.4 / 0.003)


def test_speed_probe_samples_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with harness.SpeedProbe(period=0.01) as probe:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    n = len(probe.took)
    time.sleep(0.05)
    assert n >= 5 and len(probe.took) == n and all(t > 0 for t in probe.took)
    assert signal.getsignal(signal.SIGALRM) is before


def test_summary_quartiles():
    s = harness.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["median"], s["n"]) == (3.0, 5)
    assert s["q1"] <= s["median"] <= s["q3"]
    assert harness.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_benchmark_json_lists_the_per_layer_metrics_the_tracer_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == tracer.per_layer_metric_specs()
    values, _ = tracer.per_layer_metrics(tracer.Tracer(), overhead_s=0.0)
    assert set(values) == {name for name, _, _ in listed}
