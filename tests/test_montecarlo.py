"""Tests for the Monte-Carlo failure probability estimator."""

import math
import os
from concurrent.futures import Future

import pytest

from wbcsim.analytics import pf_no_faulty_exact, pf_S_bounds
import wbcsim.montecarlo as montecarlo
from wbcsim.montecarlo import MonteCarloResult, estimate_pf
from wbcsim.protocol import AdversaryConfig, ProtocolParams

NO_FAULTY = AdversaryConfig.NO_FAULTY
S_FAULTY = AdversaryConfig.S_FAULTY
R0_FAULTY = AdversaryConfig.R0_FAULTY


def params(m, mu="0.3", lam="0.8"):
    return ProtocolParams.create(mu, lam, m)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = estimate_pf(NO_FAULTY, params(5), 300, seed=11)
        b = estimate_pf(NO_FAULTY, params(5), 300, seed=11)
        assert (a.estimate, a.stderr) == (b.estimate, b.stderr)

    def test_different_seed_differs(self):
        a = estimate_pf(NO_FAULTY, params(5), 300, seed=11)
        b = estimate_pf(NO_FAULTY, params(5), 300, seed=12)
        assert a.estimate != b.estimate

    @pytest.mark.parametrize("jobs", [2, 3, 5])
    def test_worker_count_does_not_change_result(self, jobs):
        serial = estimate_pf(S_FAULTY, params(12), 400, seed=3)
        parallel = estimate_pf(S_FAULTY, params(12), 400, seed=3, jobs=jobs)
        assert serial.n_failures == parallel.n_failures


class TestStatistics:
    def test_stderr_formula(self):
        r = MonteCarloResult(NO_FAULTY, params(5), 10000, 2000, 0)
        assert r.estimate == 0.2
        assert math.isclose(r.stderr, 0.004, rel_tol=1e-12)

    def test_consistency_no_faulty_m2(self):
        # true failure probability at m = 2 is 4/9
        p = params(2)
        exact = float(pf_no_faulty_exact(p, exact=True).value)
        assert exact == pytest.approx(4 / 9)
        r = estimate_pf(NO_FAULTY, p, 100_000, seed=42)
        assert abs(r.estimate - exact) < 5 * r.stderr

    def test_faulty_estimates_track_upper_bounds(self):
        # out-of-domain Events count as failures, matching the upper bound
        p = params(30, "0.272", "0.94")
        r = estimate_pf(S_FAULTY, p, 20_000, seed=7)
        target = pf_S_bounds(p)[1].value
        assert abs(r.estimate - target) < 4 * max(r.stderr, 1e-4)

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            estimate_pf(NO_FAULTY, params(2), 0, seed=0)


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_nonpositive_jobs(self, jobs):
        with pytest.raises(ValueError):
            estimate_pf(NO_FAULTY, params(2), 10, seed=0, jobs=jobs)

    def test_pool_is_capped_at_cpu_count(self, monkeypatch):
        # an inline stand-in for the pool: no process is started
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        serial = estimate_pf(S_FAULTY, params(12), 60, seed=3)
        capped = estimate_pf(S_FAULTY, params(12), 60, seed=3, jobs=10**6)
        assert all(w <= (os.cpu_count() or 1) for w in requested)
        assert capped.n_failures == serial.n_failures
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        three = estimate_pf(S_FAULTY, params(12), 60, seed=3, jobs=10**6)
        assert requested[-1] == 3 and three.n_failures == serial.n_failures
