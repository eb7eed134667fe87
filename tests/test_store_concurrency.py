"""Concurrent-writer tests for the result store.

The store's contract under concurrency is small but load-bearing:
writes are atomic (a reader never observes a torn entry), same-key
writers never clobber each other mid-write (unique temp names), and
maintenance (``clear``/``gc``) never deletes the temp file of a live
writer.  The ``crash-before-rename`` injection point manufactures the
orphan temp file a genuinely crashed writer leaves behind.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.common.errors import FaultInjected
from repro.common.params import base_ccnuma_config
from repro.experiments.executor import Executor, Job, ResultStore
from repro.faults import injection

SCALE = 0.1
APP = "em3d"


@pytest.fixture(scope="module")
def fresh_result():
    return Executor().run_app(APP, base_ccnuma_config(), SCALE)


def _hammer_saves(root, job, result, iterations):
    store = ResultStore(root)
    for _ in range(iterations):
        store.save(job, result)


def _spawn(target, *args):
    proc = multiprocessing.Process(target=target, args=args)
    proc.start()
    return proc


class TestConcurrentWriters:
    def test_same_key_writers_never_tear_the_entry(self, tmp_path, fresh_result):
        """Two processes save the same key as fast as they can; every
        observation of the entry in between is a complete, checksum-
        valid payload (atomic rename), and no temp files leak."""
        job = Job(APP, base_ccnuma_config(), SCALE)
        store = ResultStore(tmp_path)
        procs = [
            _spawn(_hammer_saves, tmp_path, job, fresh_result, 100)
            for _ in range(2)
        ]
        try:
            deadline = time.monotonic() + 60
            while any(p.is_alive() for p in procs):
                assert time.monotonic() < deadline, "writers wedged"
                for path in store._entry_paths():
                    assert store.classify_entry(path) == "ok"
        finally:
            for p in procs:
                p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        assert store.load(job) is not None
        assert not list(tmp_path.glob("*.tmp"))

    def test_clear_during_saves_never_kills_a_writer(
        self, tmp_path, fresh_result
    ):
        """``clear`` racing a saving process must not delete the
        writer's in-flight temp file (its rename would crash and the
        result would be lost) — the age gate keeps fresh temps."""
        job = Job(APP, base_ccnuma_config(), SCALE)
        store = ResultStore(tmp_path)
        proc = _spawn(_hammer_saves, tmp_path, job, fresh_result, 100)
        try:
            while proc.is_alive():
                store.clear()
        finally:
            proc.join(timeout=60)
        assert proc.exitcode == 0, "clear() broke a concurrent writer"


class TestCrashedWriter:
    def test_crash_before_rename_leaves_orphan_tmp(
        self, tmp_path, fresh_result, monkeypatch
    ):
        monkeypatch.setenv(injection.ENV_VAR, "crash-before-rename")
        injection.reset_counters()
        store = ResultStore(tmp_path)
        job = Job(APP, base_ccnuma_config(), SCALE)
        with pytest.raises(FaultInjected):
            store.save(job, fresh_result)
        # The entry never appeared, the temp file did — exactly a
        # writer that died between write and rename.
        assert store.load(job) is None
        (orphan,) = tmp_path.glob("*.tmp")
        assert orphan.stat().st_size > 0

    def test_fresh_orphan_survives_clear_and_gc(
        self, tmp_path, fresh_result, monkeypatch
    ):
        monkeypatch.setenv(injection.ENV_VAR, "crash-before-rename:times=1")
        injection.reset_counters()
        store = ResultStore(tmp_path)
        job = Job(APP, base_ccnuma_config(), SCALE)
        with pytest.raises(FaultInjected):
            store.save(job, fresh_result)
        (orphan,) = tmp_path.glob("*.tmp")

        report = store.gc()
        assert report["kept_live_tmp"] == 1 and report["removed_tmp"] == 0
        store.clear()
        assert orphan.exists(), "fresh tmp may belong to a live writer"

        # Once demonstrably old, the orphan is dead and gc reclaims it.
        stale = time.time() - 2 * 3600
        os.utime(orphan, (stale, stale))
        report = store.gc()
        assert report["removed_tmp"] == 1
        assert not orphan.exists()

    def test_torn_write_is_detected_not_trusted(
        self, tmp_path, fresh_result, monkeypatch
    ):
        """An injected non-atomic write lands a truncated payload in
        the final path; the load path rejects it and ``verify``
        quarantines it — it is never silently returned as a result."""
        monkeypatch.setenv(injection.ENV_VAR, "store-torn-write:times=1")
        injection.reset_counters()
        store = ResultStore(tmp_path)
        job = Job(APP, base_ccnuma_config(), SCALE)
        store.save(job, fresh_result)
        path = store.path_for(job)
        assert path.exists()
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())
        assert store.load(job) is None
        report = store.verify()
        assert [q["reason"] for q in report["quarantined"]] == ["corrupt-json"]

    def test_read_corruption_is_detected_not_trusted(
        self, tmp_path, fresh_result, monkeypatch
    ):
        store = ResultStore(tmp_path)
        job = Job(APP, base_ccnuma_config(), SCALE)
        store.save(job, fresh_result)
        monkeypatch.setenv(injection.ENV_VAR, "store-read-corruption:times=1")
        injection.reset_counters()
        assert store.load(job) is None  # corrupted read rejected
        assert store.load(job) is not None  # budget spent; entry intact
