"""Tests for the Monte-Carlo failure probability estimator."""

import math
import os
from concurrent.futures import Future

import numpy as np
import pytest

from wbcsim.analytics import pf_no_faulty_exact, pf_S_bounds
import wbcsim.montecarlo as montecarlo
from wbcsim.montecarlo import MonteCarloResult, estimate_pf
from wbcsim.protocol import AdversaryConfig, ProtocolParams, _block_rows
from wbcsim.source import substream

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


class TestPinnedCounts:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("seed,counts", [(11, (52, 143, 155)), (12, (42, 145, 138))])
    def test_failure_counts(self, seed, counts, jobs):
        # no-faulty/S/R0 failures of 3000 trials at (0.272, 0.94, 280), as
        # the per-Event protocol path counted them
        p = params(280, "0.272", "0.94")
        got = tuple(estimate_pf(cfg, p, 3000, seed, jobs=jobs).n_failures for cfg in (NO_FAULTY, S_FAULTY, R0_FAULTY))
        assert got == counts

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "mu,lam,m,trials,seed,counts",
        [("0.3", "0.8", 5, 10_000, 11, (4678, 8324, 8116)), ("0.32", "0.85", 2000, 400, 11, (32, 45, 138))],
        ids=["m5", "m2000"],
    )
    def test_failure_counts_at_the_block_extremes(self, mu, lam, m, trials, seed, counts, jobs):
        # no-faulty/S/R0 failures with 4096 rows per engine block (m = 5)
        # and 65 (m = 2000), as the per-row class cumsums counted them; both
        # runs span several blocks, the last one partial
        assert _block_rows(m) == {5: 4096, 2000: 65}[m]
        assert trials // _block_rows(m) >= 2 and trials % _block_rows(m) != 0
        p = params(m, mu, lam)
        got = tuple(estimate_pf(cfg, p, trials, seed, jobs=jobs).n_failures for cfg in (NO_FAULTY, S_FAULTY, R0_FAULTY))
        assert got == counts


class TestMemory:
    def test_draw_buffer_stays_within_one_mebibyte(self, monkeypatch):
        # rows per block times m float64 draws, for every m to 10^5; past
        # the code budget a block holds one row
        for m in range(1, 10**5 + 1):
            assert _block_rows(m) * m * 8 <= 1 << 20, m
        assert _block_rows(2**17 + 1) == _block_rows(10**7) == 1
        # the buffer _count_failures fills
        buffers = []
        trial_draws = montecarlo._trial_draws

        def spy(seed, lo, hi, out):
            buffers.append(out.nbytes)
            return trial_draws(seed, lo, hi, out)

        monkeypatch.setattr(montecarlo, "_trial_draws", spy)
        ms = (1, 5, 280, 2000, 70_000)
        for m in ms:
            estimate_pf(NO_FAULTY, params(m), 3, seed=1)
        assert buffers == [_block_rows(m) * m * 8 for m in ms]


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

    @pytest.mark.parametrize("n_trials", [True, 2.5, 10.0])
    def test_rejects_trial_counts_that_are_not_integers(self, n_trials):
        # True used to run one trial and report n_trials=True; 2.5 failed
        # with a TypeError from range
        with pytest.raises(ValueError, match="n_trials must be a positive count"):
            estimate_pf(NO_FAULTY, params(2), n_trials, seed=0)

    def test_numpy_counts_pass(self):
        r = estimate_pf(S_FAULTY, params(12), np.int64(60), seed=3, jobs=np.int64(1))
        assert r.n_failures == estimate_pf(S_FAULTY, params(12), 60, seed=3).n_failures


    def test_numpy_integers_give_the_python_int_result(self):
        # an np.int64 seed raised "seed must be a non-negative int", and an
        # np.int64 n_trials was stored in the result as it came
        r = estimate_pf(S_FAULTY, params(12), np.int64(60), seed=np.int64(3), jobs=np.int32(1))
        assert r == estimate_pf(S_FAULTY, params(12), 60, seed=3)
        assert [type(v) for v in (r.n_trials, r.n_failures, r.seed)] == [int, int, int]


class TestJobs:
    # True used to pass as one job, and 1.5 to fail later with a TypeError from range
    @pytest.mark.parametrize("jobs", [0, -1, True, 1.5])
    def test_rejects_nonpositive_jobs(self, jobs):
        with pytest.raises(ValueError, match="jobs must be a positive count"):
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

        # estimate_pf imports the pool class only when it starts a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        serial = estimate_pf(S_FAULTY, params(12), 60, seed=3)
        capped = estimate_pf(S_FAULTY, params(12), 60, seed=3, jobs=10**6)
        assert all(w <= (os.cpu_count() or 1) for w in requested)
        assert capped.n_failures == serial.n_failures
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        three = estimate_pf(S_FAULTY, params(12), 60, seed=3, jobs=10**6)
        assert requested[-1] == 3 and three.n_failures == serial.n_failures


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, True, False, 1.0, "3", None])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative int, got {seed!r}"):
            estimate_pf(NO_FAULTY, params(2), 10, seed=seed)

    def test_builds_no_seed_sequence_per_trial(self, monkeypatch):
        # count the seed sequences and generators built through numpy's
        # namespace; a substream per trial would show up in the count
        built = []
        for name in ("SeedSequence", "PCG64", "default_rng"):
            def counted(*args, _fn=getattr(np.random, name), _name=name, **kwargs):
                built.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counted)
        substream(3, 0)
        assert built, "the spy sees a substream being built"
        built.clear()
        p = params(280, "0.272", "0.94")
        estimate_pf(R0_FAULTY, p, 2000, seed=3)
        assert 2000 // _block_rows(p.m) > 2
        assert len(built) <= 2, built
