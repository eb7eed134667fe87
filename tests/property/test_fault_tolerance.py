"""Differential fault-tolerance suite for the supervised executor.

The central property: a sweep running under injected faults — worker
crashes, hung workers, torn store writes, corrupt store reads — either
completes with **bit-identical results and zero result loss** relative
to the fault-free sweep (when the retry budget covers the faults), or
fails *loudly* with a replayable :class:`JobFailure` record per dead
job while every survivor's result is kept (when it does not).
"""

import json
import time

import pytest

from repro.common.params import RetryPolicy
from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
from repro.experiments.executor import (
    Executor,
    Job,
    JobFailure,
    ResultStore,
    SweepFailure,
    job_from_failure,
)
from repro.faults import injection

SCALE = 0.1
APP = "em3d"


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv(injection.ENV_VAR, raising=False)
    injection.reset_counters()


def sweep_jobs():
    return [
        Job(APP, cfg, SCALE)
        for cfg in (ideal(), cc_config(), scoma_config(), rnuma_config())
    ]


def assert_results_equal(a, b):
    assert a.exec_cycles == b.exec_cycles
    assert a.cpu_finish_times == b.cpu_finish_times
    assert a.summary() == b.summary()
    assert a.stats.as_dict() == b.stats.as_dict()


@pytest.fixture(scope="module")
def baseline():
    """The fault-free sweep every faulted run is compared against."""
    return Executor(workers=1).run(sweep_jobs())


class TestCrashRecovery:
    def test_injected_crashes_are_invisible_serial(self, baseline, monkeypatch):
        """Every job crashes twice, the budget covers it: the sweep
        completes as if nothing happened."""
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise:times=2")
        faulted = Executor(
            workers=1,
            retry=RetryPolicy(retries=2, backoff=0.01),
        ).run(sweep_jobs())
        assert len(faulted) == len(baseline)
        for a, b in zip(baseline, faulted):
            assert_results_equal(a, b)

    def test_injected_crashes_are_invisible_pool(self, baseline, monkeypatch):
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise:times=1")
        faulted = Executor(
            workers=2,
            retry=RetryPolicy(retries=1, backoff=0.01),
        ).run(sweep_jobs())
        for a, b in zip(baseline, faulted):
            assert_results_equal(a, b)

    def test_exhausted_budget_keeps_survivors(
        self, baseline, monkeypatch, tmp_path
    ):
        """One job crashes on every attempt; keep-going still finishes
        (and persists) the other three before raising."""
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise:index=1")
        store = ResultStore(tmp_path)
        exe = Executor(
            workers=1,
            store=store,
            retry=RetryPolicy(retries=1, backoff=0.0),
        )
        jobs = sweep_jobs()
        with pytest.raises(SweepFailure) as exc_info:
            exe.run(jobs)
        (failure,) = exc_info.value.failures
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert "FaultInjected" in failure.error
        assert "worker-raise" in failure.traceback
        assert failure.key == repr(jobs[1].key)
        assert len(store) == 3 and len(exe.cache) == 3

        # The failure lands in the manifest, replayable.
        exe.write_manifest(jobs)
        manifest = store.read_manifest()
        (recorded,) = manifest["failures"]
        rebuilt = job_from_failure(
            JobFailure.from_json_dict(json.loads(json.dumps(recorded)))
        )
        assert rebuilt.key == jobs[1].key

        # Resume-style: faults gone, re-running just the failed job
        # yields the bit-identical missing result.
        monkeypatch.delenv(injection.ENV_VAR)
        (recovered,) = Executor(workers=1, store=store).run([rebuilt])
        assert_results_equal(baseline[1], recovered)
        assert len(store) == 4

    def test_fail_fast_aborts_at_first_permanent_failure(self, monkeypatch):
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise:index=0")
        exe = Executor(
            workers=1,
            retry=RetryPolicy(retries=0, backoff=0.0, fail_fast=True),
        )
        with pytest.raises(SweepFailure):
            exe.run(sweep_jobs())
        assert len(exe.cache) == 0, "fail-fast must not run the rest"

    def test_known_failure_is_not_resimulated(self, monkeypatch):
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise:index=0")
        exe = Executor(workers=1, retry=RetryPolicy(backoff=0.0))
        job = Job(APP, cc_config(), SCALE)
        with pytest.raises(SweepFailure):
            exe.run([job])
        (prior,) = exe.failures

        # Faults cleared: a healthy executor would succeed now, but
        # this one must re-report its recorded failure instantly.
        monkeypatch.delenv(injection.ENV_VAR)
        attempts = []
        monkeypatch.setattr(
            "repro.experiments.executor._run_supervised",
            lambda _payload: attempts.append(1),
        )
        with pytest.raises(SweepFailure) as exc_info:
            exe.run([job])
        assert exc_info.value.failures == [prior]
        with pytest.raises(SweepFailure):
            exe.run_app(APP, cc_config(), SCALE)
        assert attempts == []
        assert exe.missing([job]) == []

    def test_run_app_follows_the_retry_policy(self, baseline, monkeypatch):
        """A one-job lookup takes the sweep's path: a crash past the
        budget is recorded and raised, one within it is invisible."""
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise")
        exe = Executor(workers=1, retry=RetryPolicy(backoff=0.0))
        with pytest.raises(SweepFailure):
            exe.run_app(APP, cc_config(), SCALE)
        (failure,) = exe.failures
        assert failure.kind == "crash" and failure.attempts == 1

        monkeypatch.setenv(injection.ENV_VAR, "worker-raise:times=1")
        exe = Executor(
            workers=1,
            retry=RetryPolicy(retries=1, backoff=0.0),
        )
        assert_results_equal(baseline[1], exe.run_app(APP, cc_config(), SCALE))
        assert exe.failures == []


class TestHangRecovery:
    def test_hung_worker_is_reaped_and_retried(self, baseline, monkeypatch):
        """A worker sleeping for an hour is detected by the per-job
        deadline in bounded time, the pool is recycled, and the retry
        completes the sweep bit-identically."""
        monkeypatch.setenv(injection.ENV_VAR, "worker-hang:index=0,times=1")
        exe = Executor(
            workers=2,
            retry=RetryPolicy(retries=1, job_timeout=2.0, backoff=0.01),
        )
        t0 = time.monotonic()
        results = exe.run(sweep_jobs())
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, "hang must be reaped by the deadline"
        for a, b in zip(baseline, results):
            assert_results_equal(a, b)
        assert exe.failures == []

    def test_timeout_exhaustion_is_a_recorded_failure(self, monkeypatch):
        monkeypatch.setenv(injection.ENV_VAR, "worker-hang:index=0")
        exe = Executor(
            workers=2,
            retry=RetryPolicy(retries=0, job_timeout=1.0, backoff=0.0),
        )
        jobs = sweep_jobs()
        with pytest.raises(SweepFailure) as exc_info:
            exe.run(jobs)
        (failure,) = exc_info.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert "--job-timeout" in failure.error
        assert failure.key == repr(jobs[0].key)
        # Innocent bystanders of the pool recycle still completed.
        assert len(exe.cache) == 3

    def test_job_timeout_forces_preemptible_pool(self):
        """With a deadline set, even a single job must go through the
        supervised pool — an in-process job cannot be preempted."""
        exe = Executor(
            workers=1,
            retry=RetryPolicy(job_timeout=60.0),
        )
        (result,) = exe.run([Job(APP, cc_config(), SCALE)])
        assert result.exec_cycles > 0
        assert [p["source"] for p in exe.job_profiles] == ["simulated"]


class TestStoreFaults:
    def test_torn_write_loses_no_results(self, baseline, monkeypatch, tmp_path):
        """A torn store write corrupts one entry on disk but the sweep
        still returns every result; verify quarantines the damage and
        the next sweep heals it by re-simulating exactly that job."""
        monkeypatch.setenv(injection.ENV_VAR, "store-torn-write:times=1")
        store = ResultStore(tmp_path)
        results = Executor(workers=1, store=store).run(sweep_jobs())
        for a, b in zip(baseline, results):
            assert_results_equal(a, b)

        report = store.verify()
        assert len(report["quarantined"]) == 1 and report["ok"] == 3

        monkeypatch.delenv(injection.ENV_VAR)
        healed = Executor(workers=1, store=store)
        again = healed.run(sweep_jobs())
        for a, b in zip(baseline, again):
            assert_results_equal(a, b)
        assert len(store) == 4
        assert store.verify()["ok"] == 4

    def test_read_corruption_forces_resimulation_never_bad_data(
        self, baseline, monkeypatch, tmp_path
    ):
        """Corrupt reads can only cost re-simulation, never wrong
        results: every load is rejected, every job re-runs, and the
        output stays bit-identical."""
        store = ResultStore(tmp_path)
        Executor(workers=1, store=store).run(sweep_jobs())

        monkeypatch.setenv(injection.ENV_VAR, "store-read-corruption")
        exe = Executor(workers=1, store=store)
        results = exe.run(sweep_jobs())
        for a, b in zip(baseline, results):
            assert_results_equal(a, b)
        assert [p["source"] for p in exe.job_profiles] == ["simulated"] * 4
