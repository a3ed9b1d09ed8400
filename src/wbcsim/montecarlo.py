"""Monte-Carlo estimation of failure probabilities.

Each trial samples one Event, runs the protocol in the requested adversary
configuration, and scores the transcript against the weak broadcast truth
table. Events outside a faulty strategy's domain count as failures, so the
estimate tracks the analytic upper bound. Trials draw from counter-based
substreams, making the estimate independent of how trials are split across
workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .protocol import (
    AdversaryConfig,
    Outcome,
    OutOfDomainError,
    ProtocolParams,
    classify_transcript,
    run_protocol,
)
from .source import sample_event, substream


@dataclass(frozen=True)
class MonteCarloResult:
    config: AdversaryConfig
    params: ProtocolParams
    n_trials: int
    n_failures: int
    seed: int

    @property
    def estimate(self) -> float:
        return self.n_failures / self.n_trials

    @property
    def stderr(self) -> float:
        p_hat = self.estimate
        return math.sqrt(p_hat * (1 - p_hat) / self.n_trials)


def _run_trial(cfg: AdversaryConfig, p: ProtocolParams, seed: int, trial: int) -> bool:
    """True iff trial number `trial` is a failure."""
    event = sample_event(p.m, substream(seed, trial))
    try:
        t = run_protocol(event, p, cfg, x_s=0)
    except OutOfDomainError:
        return True
    return classify_transcript(cfg, t) is Outcome.FAILURE


def _count_failures(cfg: AdversaryConfig, p: ProtocolParams, seed: int, lo: int, hi: int) -> int:
    return sum(_run_trial(cfg, p, seed, trial) for trial in range(lo, hi))


def estimate_pf(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    n_trials: int,
    seed: int,
    jobs: int = 1,
) -> MonteCarloResult:
    """Frequency estimate of the failure probability over n_trials runs.

    The trial outcomes are a pure function of (seed, trial number), so the
    result is identical for every jobs value. At most one worker process
    per CPU is started, however large jobs is.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be a positive count")
    if jobs < 1:
        raise ValueError(f"jobs must be a positive count, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        failures = _count_failures(cfg, p, seed, 0, n_trials)
    else:
        chunk = -(-n_trials // workers)
        ranges = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_count_failures, cfg, p, seed, lo, hi) for lo, hi in ranges]
            failures = sum(f.result() for f in futures)
    return MonteCarloResult(cfg, p, n_trials, failures, seed)
