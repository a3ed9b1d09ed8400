"""Tracing of wbcsim layers, from outside the package.

The tracer wraps the public functions of each measured wbcsim module from
outside the package: every module attribute that is bound to one of those
functions, including names re-bound by import in other wbcsim modules (for
example `optimizer.pf_R_bounds`), is replaced by a wrapper that records a
span. Spans (name, start, end, parent, error) are kept in flat arrays in
memory and written out when the traced pass ends. Nothing inside `src/` is
edited; `uninstall()` restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import time
from array import array
from typing import Callable, Sequence

# Layers measured, named after the package modules. `metrics` (fidelity on
# 16x16 matrices) has negligible cost and is deliberately not traced.
LAYERS = ("source", "protocol", "adversary", "analytics", "montecarlo", "optimizer", "security", "cli")

BOUND_FUNCTIONS = ("analytics.pf_no_faulty_exact", "analytics.pf_S_bounds", "analytics.pf_R_bounds")

# Ladder of m values of the large-m workload; per-m bound timings use it.
LADDER = tuple(range(1000, 10001, 1000))

OUT_OF_DOMAIN_REASONS = ("cond1", "cond2", "cond3", "l1")


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> array:
    """Self time of each span: its duration minus the durations of its
    direct children. Spans of one thread nest, so children never overlap."""
    own = array("d", (e - s for s, e in zip(start, end)))
    for i, par in enumerate(parent):
        if par >= 0:
            own[par] -= end[i] - start[i]
    return own


def _bound_args_hook(fn: Callable) -> Callable:
    """Records m, (mu, lambda) and the exact flag of an analytics call."""
    names = list(inspect.signature(fn).parameters)
    exact_default = inspect.signature(fn).parameters.get("exact")
    exact_default = exact_default.default if exact_default is not None else False

    def hook(args, kwargs, result):
        bound = dict(zip(names, args))
        bound.update(kwargs)
        p = bound.get("p")
        extra = {"exact": bool(bound.get("exact", exact_default))}
        if p is not None and hasattr(p, "m"):
            extra["key"] = (p.mu, p.lam, p.m)
        return extra

    return hook


def _domain_hook(args, kwargs, result):
    """Out-of-domain reason of a zeta_S / zeta_R verdict, if any."""
    if result is None or getattr(result, "in_domain", True):
        return None
    reason = str(getattr(result, "reason", ""))
    return {"ood": reason.split(":", 1)[0] if reason.startswith("cond") else "l1"}


def _query_hook(args, kwargs, result):
    """Subcommand and exit code of a command-line query."""
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None, "rc": result}


class Tracer:
    """Span recorder for one traced pass. Single-threaded: the benchmark is
    a closed loop with one caller and `--jobs 1`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.error = array("b")
        self.extra: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        ids, start, end, parent, error = self.name_id, self.start, self.end, self.parent, self.error
        stack, extra, clock = self._stack, self.extra, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            ids.append(name_id)
            parent.append(stack[-1] if stack else -1)
            error.append(0)
            end.append(0.0)
            stack.append(idx)
            result = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    info = hook(args, kwargs, result)
                    if info:
                        extra[idx] = info

        return wrapper

    def record(self, name: str, start: float, end: float, parent: int = -1, error: bool = False) -> int:
        """Append a finished span directly (used by the self-test)."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        self.name_id.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.error.append(int(error))
        return len(self.start) - 1

    # -- installation ----------------------------------------------------

    def install(self, package_modules: dict[str, object]) -> None:
        """Wrap the public functions (and public classmethods of public
        classes) defined in each module of LAYERS, wherever bound.

        `package_modules` maps short module names ("analytics", ...) to
        modules, and may include modules that are not traced themselves
        (the package `__init__`, `metrics`) so their re-bound names are
        wrapped too.
        """
        wrappers: dict[object, Callable] = {}
        for short in LAYERS:
            mod = package_modules.get(short)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, self._hook_for(name, obj))
                    self.wrapped.add(name)
                elif inspect.isclass(obj):
                    for mattr, raw in list(vars(obj).items()):
                        if mattr.startswith("_") or not isinstance(raw, classmethod):
                            continue
                        name = f"{short}.{attr}.{mattr}"
                        self._patch(obj, mattr, classmethod(self._wrap(name, raw.__func__, None)))
                        self.wrapped.add(name)
        for mod in package_modules.values():
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _hook_for(self, name: str, fn: Callable) -> Callable | None:
        if name.startswith("analytics."):
            return _bound_args_hook(fn)
        if name in ("adversary.zeta_S", "adversary.zeta_R"):
            return _domain_hook
        if name == "cli.main":
            return _query_hook
        return None

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "error": bool(self.error[i]),
                        }
                    )
                    + "\n"
                )


def _span_name(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs: list[tuple[str, str, str]] = []
    for fn in ("analytics.pf_R_bounds", "analytics.pf_S_bounds", "analytics.pf_no_faulty_exact"):
        specs += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    for fn in BOUND_FUNCTIONS:
        specs += [(f"{fn}.ms.m{m}", "ms", "lower") for m in LADDER]
    specs += [
        ("analytics.pf_S_bounds.errors", "count", "lower"),
        ("analytics.pf_S_bounds.calls_per_point", "count", "lower"),
        ("optimizer.config_crossings.self_s", "s", "lower"),
        ("optimizer.m_min_upper.self_s", "s", "lower"),
        ("optimizer.grid_search.self_s", "s", "lower"),
        ("optimizer.worst_upper_bound.calls", "count", "lower"),
        ("optimizer.bound_evals", "count", "lower"),
        ("optimizer.unique_eval_ratio", "ratio", "higher"),
        ("protocol.ProtocolParams.create.calls", "count", "lower"),
        ("protocol.ProtocolParams.create.self_s", "s", "lower"),
        ("security.in_guaranteed_region.calls", "count", "lower"),
        ("security.in_guaranteed_region.self_s", "s", "lower"),
        ("source.sample_event.calls", "count", "lower"),
        ("source.sample_event.self_s", "s", "lower"),
        ("source.substream.calls", "count", "lower"),
        ("source.substream.self_s", "s", "lower"),
        ("source.global_counts.self_s", "s", "lower"),
        ("montecarlo.estimate_pf.self_s", "s", "lower"),
        ("protocol.run_protocol.calls", "count", "lower"),
    ]
    for fn in ("run_protocol", "invocation_honest", "check_phase", "cross_check", "classify_transcript"):
        specs.append((f"protocol.{fn}.self_s", "s", "lower"))
    for fn in ("zeta_S", "zeta_R", "assemble_check_sets_S", "local_counts_R", "assemble_rho_R"):
        specs.append((f"adversary.{fn}.self_s", "s", "lower"))
    specs += [(f"adversary.out_of_domain.{r}", "count", "lower") for r in OUT_OF_DOMAIN_REASONS]
    specs += [
        ("adversary.best_failure_probability_bruteforce.self_s", "s", "lower"),
        ("adversary.conditional_failure_probability.calls", "count", "lower"),
        ("analytics.pf_bruteforce.self_s", "s", "lower"),
        ("analytics.exact.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from the recorded spans, and the traced
    function names the metrics refer to that were not found to wrap.

    A name removed by a later refactor is reported in the absent list and
    its metrics read 0; it never raises.
    """
    n = len(tracer.start)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    names = [tracer.names[i] for i in tracer.name_id]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    durations_by_m: dict[tuple[str, int], list[float]] = {}
    for i in range(n):
        name = names[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        errors[name] = errors.get(name, 0) + tracer.error[i]
        key = tracer.extra.get(i, {}).get("key")
        if name in BOUND_FUNCTIONS and key is not None:
            durations_by_m.setdefault((name, key[2]), []).append(tracer.end[i] - tracer.start[i])

    def ancestor(i: int, prefix: str) -> int:
        i = tracer.parent[i]
        while i >= 0 and not names[i].startswith(prefix):
            i = tracer.parent[i]
        return i

    bound_evals = 0
    distinct = set()
    ood = dict.fromkeys(OUT_OF_DOMAIN_REASONS, 0)
    exact_self = 0.0
    s_calls_by_query: dict[int, int] = {}
    for i in range(n):
        name, info = names[i], tracer.extra.get(i, {})
        if info.get("exact") and name.startswith("analytics."):
            exact_self += own[i]
        if "ood" in info:
            ood[info["ood"]] = ood.get(info["ood"], 0) + 1
        if name in BOUND_FUNCTIONS and "key" in info and ancestor(i, "optimizer.") >= 0:
            bound_evals += 1
            distinct.add((name,) + info["key"])
        if name == "analytics.pf_S_bounds":
            query = ancestor(i, "cli.main")
            if query >= 0:
                s_calls_by_query[query] = s_calls_by_query.get(query, 0) + 1
    # pf_S_bounds calls per successful `exact` query (one (config, m) point)
    ok_points = [
        c for q, c in s_calls_by_query.items() if tracer.extra.get(q, {}) == {"command": "exact", "rc": 0}
    ]

    values: dict[str, float] = {}
    for metric, _, _ in per_layer_metric_specs():
        span, field = _span_name(metric), metric.rsplit(".", 1)[1]
        if field == "calls":
            values[metric] = calls.get(span, 0)
        elif field == "self_s":
            values[metric] = self_s.get(span, 0.0)
        elif field == "errors":
            values[metric] = errors.get(span, 0)
        elif ".ms.m" in metric:
            fn, m = metric.split(".ms.m")
            samples = durations_by_m.get((fn, int(m)))
            values[metric] = 1000 * statistics.median(samples) if samples else 0.0
    values["analytics.pf_S_bounds.calls_per_point"] = statistics.mean(ok_points) if ok_points else 0.0
    values["optimizer.bound_evals"] = bound_evals
    values["optimizer.unique_eval_ratio"] = len(distinct) / bound_evals if bound_evals else 0.0
    values["analytics.exact.self_s"] = exact_self
    for reason in OUT_OF_DOMAIN_REASONS:
        values[f"adversary.out_of_domain.{reason}"] = ood.get(reason, 0)
    values["trace.overhead_s"] = overhead_s

    referenced = {_span_name(metric) for metric, _, _ in per_layer_metric_specs() if ".ms.m" not in metric}
    referenced |= set(BOUND_FUNCTIONS) | {"adversary.zeta_S", "adversary.zeta_R", "cli.main"}
    derived = {"optimizer", "analytics.exact", "adversary.out_of_domain", "trace"}
    absent = sorted(name for name in referenced if name not in derived and name not in tracer.wrapped)
    return values, absent
