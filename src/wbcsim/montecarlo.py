"""Monte-Carlo estimation of failure probabilities.

Each trial samples one Event, runs the protocol in the requested adversary
configuration, and scores the outputs against the weak broadcast truth
table; trials go through the protocol's array engine in row blocks. Events
outside a faulty strategy's domain count as failures, so the estimate
tracks the analytic upper bound. Trial t draws from substream(seed, t),
so the estimate does not depend on how trials are split across workers.
The block seeder in `source` hashes the trial numbers of many trials at
once, sets one reused PCG64 to each trial's state in turn to fill that
trial's row of draws, and maps the draws to outcome codes by comparing
them with the outcome table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .protocol import AdversaryConfig, ProtocolParams, _block_rows, _failed_weights
from .source import _as_count, _codes_of, _trial_draws


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


def _count_failures(cfg: AdversaryConfig, p: ProtocolParams, seed: int, lo: int, hi: int) -> int:
    """Failures among trials lo..hi-1. The block seeder fills one row of
    draws per trial, as sample_event draws from the trial's substream; then
    a whole block of rows goes through the protocol engine at once."""
    draws = np.empty((_block_rows(p.m), p.m))
    ones = np.ones(len(draws), np.int64)
    return sum(int(_failed_weights(cfg, p, _codes_of(b), ones[: len(b)]).sum()) for b in _trial_draws(seed, lo, hi, draws))


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
    n_trials, jobs, seed = _as_count(n_trials, "n_trials"), _as_count(jobs, "jobs"), _as_count(seed, "seed", least=0)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        failures = _count_failures(cfg, p, seed, 0, n_trials)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its ~15 ms import
        chunk = -(-n_trials // workers)
        ranges = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_count_failures, cfg, p, seed, lo, hi) for lo, hi in ranges]
            failures = sum(f.result() for f in futures)
    return MonteCarloResult(cfg, p, n_trials, failures, seed)
