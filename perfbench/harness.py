"""Closed-loop runner: one caller issues each operation after the previous
one returns, times it, and checks its answer afterwards, outside the timed
phase. An operation fails if it raises or if its answer fails its check;
both count against the number attempted."""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence


class CheckFailed(Exception):
    """An operation returned an answer that is not correct."""


@dataclass(frozen=True)
class Op:
    group: str  # the end-to-end figure this operation's time counts towards
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]  # raises CheckFailed on a wrong answer


@dataclass
class Outcome:
    op: Op
    seconds: float
    start: float = 0.0  # perf_counter() when the operation began
    result: Any = None
    error: str | None = None  # the operation raised
    wrong: str | None = None  # the answer failed its check
    ref: float | None = None  # cost in reference loops, see SpeedProbe


def run_pass(ops: Sequence[Op]) -> list[Outcome]:
    """Run every operation once, in order, timing each."""
    outcomes = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed operation, never fatal
            outcomes.append(Outcome(op, time.perf_counter() - t0, t0, error=f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append(Outcome(op, time.perf_counter() - t0, t0, result=result))
    return outcomes


def check_outcomes(outcomes: Sequence[Outcome]) -> None:
    """Check the answer of every operation that returned one."""
    for o in outcomes:
        if o.error is None:
            try:
                o.op.check(o.result)
            except CheckFailed as exc:
                o.wrong = f"{o.op.label}: {exc}"


@dataclass(frozen=True)
class Tally:
    attempted: int
    raised: int
    wrong: int

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tally(outcomes: Sequence[Outcome]) -> Tally:
    return Tally(
        attempted=len(outcomes),
        raised=sum(o.error is not None for o in outcomes),
        wrong=sum(o.wrong is not None for o in outcomes),
    )


def pass_tally(passes: Sequence[Sequence[Outcome]]) -> tuple[Tally, bool]:
    """The tally of one pass, so that it does not grow with the number of
    passes that fit in a run. Passes are deterministic, so every pass should
    give the same tally; the worst one is returned, with whether they agree."""
    tallies = [tally(p) for p in passes]
    return max(tallies, key=lambda t: (t.failed, t.wrong)), len(set(tallies)) == 1


def group_seconds(outcomes: Sequence[Outcome]) -> dict[str, float]:
    """Total operation time of one pass, per group."""
    out: dict[str, float] = {}
    for o in outcomes:
        out[o.op.group] = out.get(o.op.group, 0.0) + o.seconds
    return out


def _reference_loop() -> dict:
    # Integer arithmetic, and Fraction arithmetic with dict inserts: the
    # host's slow phases slow these two by different shares, and the
    # workloads sit between them. Called with the garbage collector off, so
    # that its time does not depend on the heap the workload has built.
    s = 0
    for i in range(1500):
        s += i * i % 7
    d = {}
    x = Fraction(1, 3)
    for i in range(20):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 7)
        d[i] = (x, str(i + s))
    return d


class SpeedProbe:
    """Measures the host's speed while operations run, in their own thread.

    On a shared host the speed of the CPU can swing by up to about 1.8x
    over seconds to minutes, for every operation alike (as measured on a
    2-vCPU Xeon VM), so wall times of identical runs spread far more than
    a regression the benchmark must see. While the probe is active, a SIGALRM timer runs a fixed pure-Python
    loop (about 0.2 ms) every `period` seconds, between the bytecodes of
    whatever operation is running, and records how long it took. Dividing
    an operation's wall time by the loop's time around it gives its cost in
    reference loops, which the host's speed cancels out of while any
    slowdown of wbcsim itself still shows in full. The loop adds about 0.5%
    to every wall time.
    """

    def __init__(self, period: float = 0.05):
        self.period = period
        self.at = array("d")
        self.took = array("d")

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _reference_loop()
        took = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.took.append(took)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Median time of the loop from the sample before `start` to the
        one after `end`, so that a short operation gets its neighbours."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        return statistics.median(self.took[lo:hi])

    def in_reference_loops(self, outcome: Outcome) -> float:
        return outcome.seconds / self.reference_seconds(outcome.start, outcome.start + outcome.seconds)


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, first and third quartile, and sample count."""
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}
