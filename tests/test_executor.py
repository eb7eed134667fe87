"""Tests for the parallel executor and the persistent result store.

Small scales keep these fast; the point is plumbing (serialization
round-trips, store invalidation, dedup, parallel == serial), not the
paper's shapes.
"""

import json
import multiprocessing.pool
import threading
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import (
    RetryPolicy,
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
)
from repro.experiments.executor import (
    STORE_SCHEMA_VERSION,
    Executor,
    Job,
    ResultStore,
    SweepFailure,
    backoff_delay,
)
from repro.experiments.runner import run_key
from repro.sim.results import SimulationResult
from repro.workloads import registry

SCALE = 0.1
APP = "em3d"


@pytest.fixture(scope="module")
def fresh_result():
    return Executor().run_app(APP, base_ccnuma_config(), SCALE)


def assert_results_equal(a: SimulationResult, b: SimulationResult) -> None:
    assert a.exec_cycles == b.exec_cycles
    assert a.cpu_finish_times == b.cpu_finish_times
    assert a.summary() == b.summary()
    assert a.refetches_by_page() == b.refetches_by_page()
    assert a.rw_shared_pages == b.rw_shared_pages
    assert a.remote_pages_touched == b.remote_pages_touched
    assert a.config == b.config
    assert a.stats.as_dict() == b.stats.as_dict()


class TestSerialization:
    def test_json_round_trip_is_lossless(self, fresh_result):
        payload = json.loads(json.dumps(fresh_result.to_json_dict()))
        back = SimulationResult.from_json_dict(payload)
        assert_results_equal(fresh_result, back)

    def test_round_trip_preserves_run_key(self, fresh_result):
        back = SimulationResult.from_json_dict(fresh_result.to_json_dict())
        assert run_key(APP, back.config, SCALE) == run_key(
            APP, fresh_result.config, SCALE
        )


class TestResultStore:
    def test_round_trip_equals_fresh_simulation(self, tmp_path, fresh_result):
        store = ResultStore(tmp_path)
        job = Job(APP, base_ccnuma_config(), SCALE)
        store.save(job, fresh_result)
        assert len(store) == 1
        loaded = store.load(job)
        assert loaded is not None
        assert_results_equal(fresh_result, loaded)

    def test_missing_entry_loads_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(Job(APP, base_ccnuma_config(), SCALE)) is None

    def test_schema_version_bump_invalidates(self, tmp_path, fresh_result):
        job = Job(APP, base_ccnuma_config(), SCALE)
        ResultStore(tmp_path, schema_version=STORE_SCHEMA_VERSION).save(
            job, fresh_result
        )
        bumped = ResultStore(tmp_path, schema_version=STORE_SCHEMA_VERSION + 1)
        assert bumped.load(job) is None

    def test_corrupt_entry_loads_none(self, tmp_path, fresh_result):
        store = ResultStore(tmp_path)
        job = Job(APP, base_ccnuma_config(), SCALE)
        store.save(job, fresh_result)
        store.path_for(job).write_text("{not json")
        assert store.load(job) is None

    def test_tampered_config_loads_none(self, tmp_path, fresh_result):
        store = ResultStore(tmp_path)
        job = Job(APP, base_ccnuma_config(), SCALE)
        store.save(job, fresh_result)
        path = store.path_for(job)
        payload = json.loads(path.read_text())
        payload["result"]["config"]["machine"]["nodes"] = -1
        path.write_text(json.dumps(payload))
        assert store.load(job) is None

    def test_clear_empties_store(self, tmp_path, fresh_result):
        store = ResultStore(tmp_path)
        store.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
        store.clear()
        assert len(store) == 0

    def test_distinct_jobs_get_distinct_paths(self, tmp_path):
        store = ResultStore(tmp_path)
        paths = {
            store.path_for(Job(APP, base_ccnuma_config(), SCALE)),
            store.path_for(Job(APP, base_scoma_config(), SCALE)),
            store.path_for(Job("moldyn", base_ccnuma_config(), SCALE)),
            store.path_for(Job(APP, base_ccnuma_config(), SCALE / 2)),
        }
        assert len(paths) == 4


class TestExecutor:
    def test_parallel_matches_serial_for_all_protocols(self):
        jobs = [
            Job(APP, cfg, SCALE)
            for cfg in (
                ideal_config(),
                base_ccnuma_config(),
                base_scoma_config(),
                base_rnuma_config(),
            )
        ]
        serial = Executor(workers=1).run(jobs)
        parallel = Executor(workers=2).run(jobs)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert_results_equal(s, p)

    def test_duplicate_jobs_simulated_once(self):
        exe = Executor(workers=1)
        job = Job(APP, base_ccnuma_config(), SCALE)
        results = exe.run([job, job, job])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert len(exe.cache) == 1

    def test_one_slot_without_deadline_starts_no_pool(self, monkeypatch):
        """One worker, or one pending job, runs its attempts in process."""

        def no_pool(*args, **kwargs):
            raise AssertionError("started a worker pool for one slot")

        monkeypatch.setattr("multiprocessing.Pool", no_pool)
        jobs = [Job(APP, base_ccnuma_config(), SCALE), Job(APP, ideal_config(), SCALE)]
        assert len(Executor(workers=1).run(jobs)) == 2
        (result,) = Executor(workers=4).run(jobs[:1])
        assert result.exec_cycles > 0

    def test_results_in_input_order(self):
        cc = Job(APP, base_ccnuma_config(), SCALE)
        sc = Job(APP, base_scoma_config(), SCALE)
        exe = Executor(workers=1)
        first = exe.run([cc, sc])
        second = exe.run([sc, cc])
        assert first[0] is second[1] and first[1] is second[0]

    def test_warm_store_avoids_simulation(self, tmp_path, monkeypatch):
        job = Job(APP, base_ccnuma_config(), SCALE)
        Executor(workers=1, store=ResultStore(tmp_path)).run([job])

        def boom(_payload):
            raise AssertionError("simulated despite warm store")

        monkeypatch.setattr("repro.experiments.executor._run_supervised", boom)
        cold_cache = Executor(workers=1, store=ResultStore(tmp_path))
        result = cold_cache.run([job])[0]
        assert result.exec_cycles > 0
        assert cold_cache.run_app(APP, base_ccnuma_config(), SCALE) is result

    def test_run_app_populates_cache_and_store(self, tmp_path):
        store = ResultStore(tmp_path)
        exe = Executor(workers=1, store=store)
        result = exe.run_app(APP, base_ccnuma_config(), SCALE)
        assert len(store) == 1
        assert exe.run_app(APP, base_ccnuma_config(), SCALE) is result

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            Executor(workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_program_build_is_a_crashed_attempt(self, monkeypatch, workers):
        """A build fails only its own job: it is retried like a crashed
        attempt, then recorded with its traceback, and the other job
        still runs."""

        def broken_builder(*args, **kwargs):
            raise RuntimeError("builder broke")

        monkeypatch.setattr(registry, "_cache", {})
        entry = registry.APPLICATIONS[APP]
        monkeypatch.setitem(registry.APPLICATIONS, APP, (broken_builder,) + entry[1:])
        broken = Job(APP, base_ccnuma_config(), SCALE)
        other = Job("fft", base_ccnuma_config(), SCALE)
        exe = Executor(workers=workers, retry=RetryPolicy(retries=1, backoff=0))
        with pytest.raises(SweepFailure) as info:
            exe.run([broken, other])
        (failure,) = info.value.failures
        assert failure.key == repr(broken.key)
        assert failure.kind == "crash" and failure.attempts == 2
        assert failure.error == "RuntimeError: builder broke"
        assert "broken_builder" in failure.traceback
        assert other.key in exe.cache


def _instant_attempt(payload):
    """An attempt body that returns at once (module level, so it
    pickles by name; forked workers inherit the patch)."""
    return (True, "fresh", 0.0, 0.0)


def _instant_jobs(n):
    """``n`` distinct jobs."""
    return [Job(APP, base_ccnuma_config(), SCALE * (i + 1)) for i in range(n)]


@pytest.fixture
def instant_attempts(monkeypatch):
    """Attempts that return at once, for payloads that build no program."""
    monkeypatch.setattr(
        "repro.experiments.executor._run_supervised", _instant_attempt
    )
    monkeypatch.setattr(
        "repro.experiments.executor._job_payload", lambda job: (job.config, None)
    )


class TestDispatchLoop:
    """The supervisor is woken by each completion, not by a timer, and
    keeps each worker's next attempt queued unless a deadline forbids."""

    def test_completions_are_pushed_not_polled(self, instant_attempts):
        exe = Executor(workers=2)
        t0 = time.monotonic()
        results = exe.run(_instant_jobs(200))
        assert time.monotonic() - t0 < 1.0
        assert results == ["fresh"] * 200

    @pytest.mark.parametrize("job_timeout, depth", [(None, 4), (60.0, 2)])
    def test_submitted_attempts_stay_within_depth(
        self, instant_attempts, monkeypatch, job_timeout, depth
    ):
        """Two attempts per worker (one running, one queued) without a
        deadline; one per worker with one, since a deadline counts from
        submission."""
        lock = threading.Lock()
        outstanding = [0]
        peaks = []

        class CountingPool(multiprocessing.pool.Pool):
            def apply_async(self, fn, args, callback, error_callback):
                with lock:
                    outstanding[0] += 1
                    peaks.append(outstanding[0])

                def finished(outcome):
                    with lock:
                        outstanding[0] -= 1
                    callback(outcome)

                return super().apply_async(
                    fn, args, callback=finished, error_callback=finished
                )

        monkeypatch.setattr("multiprocessing.Pool", CountingPool)
        exe = Executor(workers=2, retry=RetryPolicy(job_timeout=job_timeout))
        assert exe.run(_instant_jobs(40)) == ["fresh"] * 40
        assert len(peaks) == 40 and max(peaks) == depth

    def test_deliveries_from_a_recycled_pool_are_ignored(
        self, instant_attempts, monkeypatch
    ):
        """Every attempt of the first pool hangs past its deadline; when
        that pool is terminated it still delivers them.  Only the
        retries' results may count."""
        pools = []

        class RecycledOnce:
            def __init__(self, processes):
                self.held = []
                pools.append(self)

            def apply_async(self, fn, args, callback, error_callback):
                if len(pools) == 1:
                    self.held.append(callback)
                else:
                    callback(fn(*args))

            def terminate(self):
                for callback in self.held:
                    callback((True, "stale", 0.0, 0.0))
                self.held = []

            def join(self):
                pass

        monkeypatch.setattr("multiprocessing.Pool", RecycledOnce)
        exe = Executor(
            workers=2,
            retry=RetryPolicy(retries=1, job_timeout=0.05, backoff=0.0),
        )
        assert exe.run(_instant_jobs(2)) == ["fresh", "fresh"]
        assert len(pools) == 2 and exe.failures == []


class TestTelemetry:
    """The sweep-telemetry surface: per-job profiles, the store I/O
    split, the progress heartbeat, and the run manifest."""

    def test_job_profiles_record_every_job_with_source(self, tmp_path):
        exe = Executor(workers=1, store=ResultStore(tmp_path))
        job = Job(APP, base_ccnuma_config(), SCALE)
        exe.run([job])
        exe.run([job])  # second pass: in-memory cache hit
        assert [p["source"] for p in exe.job_profiles] == ["simulated", "cache"]
        simulated = exe.job_profiles[0]
        assert simulated["app"] == APP
        assert simulated["protocol"] == "ccnuma"
        assert simulated["simulate_s"] > 0
        assert simulated["queue_wait_s"] >= 0
        cold = Executor(workers=1, store=ResultStore(tmp_path))
        cold.run([job])
        assert [p["source"] for p in cold.job_profiles] == ["store"]

    def test_store_io_seconds_split(self, tmp_path):
        job = Job(APP, base_ccnuma_config(), SCALE)
        writer = Executor(workers=1, store=ResultStore(tmp_path))
        writer.run([job])
        assert writer.store_write_seconds > 0
        reader = Executor(workers=1, store=ResultStore(tmp_path))
        reader.run([job])
        assert reader.store_read_seconds > 0
        assert reader.store_write_seconds == 0  # nothing new to persist
        # Back-compat aggregate used by the --profile table.
        assert reader.store_seconds == (
            reader.store_read_seconds + reader.store_write_seconds
        )

    def test_progress_callback_fires_in_order(self):
        seen = []
        exe = Executor(
            workers=1,
            progress=lambda done, total, job, source: seen.append(
                (done, total, job.config.protocol, source)
            ),
        )
        jobs = [
            Job(APP, base_ccnuma_config(), SCALE),
            Job(APP, base_scoma_config(), SCALE),
        ]
        exe.run(jobs)
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        assert [s[2] for s in seen] == ["ccnuma", "scoma"]
        assert all(s[3] == "simulated" for s in seen)

    def test_parallel_progress_still_bit_identical(self):
        ticks = []
        jobs = [
            Job(APP, cfg, SCALE)
            for cfg in (
                ideal_config(),
                base_ccnuma_config(),
                base_scoma_config(),
                base_rnuma_config(),
            )
        ]
        serial = Executor(workers=1).run(jobs)
        noisy = Executor(
            workers=2,
            progress=lambda *a: ticks.append(a),
        )
        parallel = noisy.run(jobs)
        assert len(ticks) == 4
        for s, p in zip(serial, parallel):
            assert_results_equal(s, p)

    def test_write_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        exe = Executor(workers=2, store=store)
        jobs = [
            Job(APP, base_ccnuma_config(), SCALE),
            Job(APP, base_ccnuma_config(), SCALE),
        ]
        exe.run(jobs)
        path = exe.write_manifest(jobs, extra={"command": "test-sweep"})
        assert path is not None and path.name == "run_manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["jobs"] == 2
        assert manifest["unique_jobs"] == 1
        assert manifest["apps"] == [APP]
        assert manifest["protocols"] == ["ccnuma"]
        assert manifest["workers"] == 2
        assert manifest["command"] == "test-sweep"
        prov = manifest["provenance"]
        assert prov["timestamp_utc"].endswith("Z")
        assert prov["git_commit"]

    def test_warm_store_hits_are_reported_once_as_store(self, tmp_path):
        """A sweep over a warm store reports each hit once, as loaded
        from the store; a rerun of the same executor finds them in its
        cache."""
        jobs = [
            Job(APP, base_ccnuma_config(), SCALE),
            Job(APP, base_scoma_config(), SCALE),
        ]
        Executor(store=ResultStore(tmp_path)).run(jobs)
        warm = Executor(store=ResultStore(tmp_path))
        warm.run(jobs)
        warm.run(jobs)
        assert [p["source"] for p in warm.job_profiles] == ["store"] * 2 + ["cache"] * 2
        manifest = json.loads(warm.write_manifest(jobs).read_text())
        assert manifest["sources"] == {
            "simulated": 0, "reused": 0, "store": 2, "failed": 0,
        }

    def test_write_manifest_without_store_is_noop(self):
        exe = Executor(workers=1)
        assert exe.write_manifest([Job(APP, base_ccnuma_config(), SCALE)]) is None

    def test_manifest_records_retry_policy_and_empty_failures(self, tmp_path):
        store = ResultStore(tmp_path)
        exe = Executor(
            workers=1,
            store=store,
            retry=RetryPolicy(retries=2, job_timeout=30.0),
        )
        jobs = [Job(APP, base_ccnuma_config(), SCALE)]
        exe.run(jobs)
        manifest = json.loads(exe.write_manifest(jobs).read_text())
        assert manifest["retry_policy"] == {
            "retries": 2,
            "job_timeout": 30.0,
            "backoff": 0.5,
        }
        assert manifest["failures"] == []

    def test_raising_progress_callback_does_not_abort_sweep(self, capsys):
        calls = []

        def broken(done, total, job, source):
            calls.append(done)
            raise RuntimeError("telemetry bug")

        exe = Executor(workers=1, progress=broken)
        jobs = [
            Job(APP, base_ccnuma_config(), SCALE),
            Job(APP, base_scoma_config(), SCALE),
        ]
        results = exe.run(jobs)
        assert len(results) == 2  # the sweep survived its heartbeat
        assert calls == [1]  # disabled after the first raise
        assert exe.progress is None
        err = capsys.readouterr().err
        assert err.count("heartbeat disabled") == 1
        assert "telemetry bug" in err


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.retries == 0
        assert policy.job_timeout is None
        assert policy.max_attempts == 1

    def test_max_attempts(self):
        assert RetryPolicy(retries=3).max_attempts == 4

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            RetryPolicy(retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError, match="job_timeout"):
            RetryPolicy(job_timeout=0)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ConfigurationError, match="backoff"):
            RetryPolicy(backoff=-0.1)

    def test_backoff_delay_deterministic_and_jittered(self):
        policy = RetryPolicy(retries=5, backoff=0.5)
        key = ("em3d", "ccnuma")
        first = backoff_delay(policy, key, 1)
        assert first == backoff_delay(policy, key, 1)
        assert 0.25 <= first < 0.75  # 0.5 * [0.5, 1.5) jitter
        second = backoff_delay(policy, key, 2)
        assert 0.5 <= second < 1.5  # doubled base, same jitter band
        assert backoff_delay(policy, key, 1) != backoff_delay(
            policy, ("fft", "ccnuma"), 1
        )

    def test_backoff_delay_capped(self):
        policy = RetryPolicy(retries=50, backoff=0.5)
        assert backoff_delay(policy, ("em3d",), 40) == 30.0

    def test_zero_backoff_means_no_delay(self):
        assert backoff_delay(RetryPolicy(backoff=0.0), ("em3d",), 3) == 0.0
