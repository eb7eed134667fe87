"""Tests for result-store integrity: the payload checksum, the
``verify``/``gc``/``stats`` maintenance surface, and its CLI."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.common.params import base_ccnuma_config, base_scoma_config
from repro.experiments.executor import (
    STORE_SCHEMA_VERSION,
    Executor,
    Job,
    ResultStore,
    payload_checksum,
)

SCALE = 0.1
APP = "em3d"


@pytest.fixture(scope="module")
def fresh_result():
    return Executor().run_app(APP, base_ccnuma_config(), SCALE)


@pytest.fixture
def warm_store(tmp_path, fresh_result):
    store = ResultStore(tmp_path)
    store.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
    return store


def entry_path(store):
    (path,) = store._entry_paths()
    return path


class TestChecksum:
    def test_entries_carry_matching_checksum(self, warm_store):
        payload = json.loads(entry_path(warm_store).read_text())
        assert payload["schema_version"] == STORE_SCHEMA_VERSION
        assert payload["payload_sha256"] == payload_checksum(payload["result"])

    def test_tampered_payload_loads_none(self, warm_store):
        path = entry_path(warm_store)
        payload = json.loads(path.read_text())
        # Believable tampering: a counter silently changed, JSON intact.
        payload["result"]["exec_cycles"] = payload["result"]["exec_cycles"] + 1
        path.write_text(json.dumps(payload))
        assert warm_store.load(Job(APP, base_ccnuma_config(), SCALE)) is None
        assert warm_store.classify_entry(path) == "checksum-mismatch"

    def test_missing_checksum_loads_none(self, warm_store):
        path = entry_path(warm_store)
        payload = json.loads(path.read_text())
        del payload["payload_sha256"]
        path.write_text(json.dumps(payload))
        assert warm_store.load(Job(APP, base_ccnuma_config(), SCALE)) is None
        assert warm_store.classify_entry(path) == "missing-checksum"

    def test_checksum_is_canonical_over_key_order(self, fresh_result):
        payload = fresh_result.to_json_dict()
        shuffled = json.loads(json.dumps(payload, sort_keys=True))
        assert payload_checksum(payload) == payload_checksum(shuffled)


class TestClassifyAndVerify:
    def test_ok_entry(self, warm_store):
        assert warm_store.classify_entry(entry_path(warm_store)) == "ok"

    @pytest.mark.parametrize(
        "data",
        [b"{truncated", b"\xff\xfe\x00garbage"],
        ids=["truncated", "not-utf8"],
    )
    def test_corrupt_json(self, warm_store, fresh_result, data):
        path = entry_path(warm_store)
        path.write_bytes(data)
        assert warm_store.classify_entry(path) == "corrupt-json"
        job = Job(APP, base_ccnuma_config(), SCALE)
        assert warm_store.load(job) is None
        assert warm_store.stats()["schema_versions"] == {"corrupt": 1}
        report = warm_store.verify(quarantine=False)
        assert [q["reason"] for q in report["quarantined"]] == ["corrupt-json"]
        # The sweep re-simulates the job and rewrites the entry.
        rerun = Executor(store=warm_store).run_app(APP, base_ccnuma_config(), SCALE)
        assert rerun.to_json_dict() == fresh_result.to_json_dict()
        assert warm_store.classify_entry(path) == "ok"

    def test_stale_schema(self, tmp_path, fresh_result):
        old = ResultStore(tmp_path, schema_version=STORE_SCHEMA_VERSION - 1)
        old.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
        current = ResultStore(tmp_path)
        assert current.classify_entry(entry_path(current)) == "stale-schema"

    def test_config_missing_a_field_is_invalid(self, warm_store):
        """A stored config that lost ``topology`` is refused, not read
        as the uniform fabric, even with its checksum recomputed."""
        path = entry_path(warm_store)
        payload = json.loads(path.read_text())
        del payload["result"]["config"]["topology"]
        payload["payload_sha256"] = payload_checksum(payload["result"])
        path.write_text(json.dumps(payload))
        assert warm_store.classify_entry(path) == "invalid-result"
        assert warm_store.load(Job(APP, base_ccnuma_config(), SCALE)) is None
        report = warm_store.verify()
        assert [q["reason"] for q in report["quarantined"]] == ["invalid-result"]
        assert (warm_store.quarantine_dir / path.name).exists()

    def test_verify_quarantines_corrupt_keeps_ok_and_stale(
        self, tmp_path, fresh_result
    ):
        store = ResultStore(tmp_path)
        store.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
        store.save(Job(APP, base_scoma_config(), SCALE), fresh_result)
        old = ResultStore(tmp_path, schema_version=STORE_SCHEMA_VERSION - 1)
        old.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
        victim = store.path_for(Job(APP, base_scoma_config(), SCALE))
        victim.write_text("{truncated")

        report = store.verify()
        assert report["checked"] == 3
        assert report["ok"] == 1
        assert report["stale_schema"] == 1
        assert [q["reason"] for q in report["quarantined"]] == ["corrupt-json"]
        assert not victim.exists()
        assert (store.quarantine_dir / victim.name).exists()
        # A clean re-verify: the corruption is gone, history remains.
        again = store.verify()
        assert again["quarantined"] == [] and again["stale_schema"] == 1

    def test_verify_no_quarantine_leaves_files(self, warm_store):
        path = entry_path(warm_store)
        path.write_text("{truncated")
        report = warm_store.verify(quarantine=False)
        assert [q["reason"] for q in report["quarantined"]] == ["corrupt-json"]
        assert path.exists()
        assert not warm_store.quarantine_dir.exists()


class TestGcAndStats:
    def test_gc_removes_stale_entries(self, tmp_path, fresh_result):
        old = ResultStore(tmp_path, schema_version=STORE_SCHEMA_VERSION - 1)
        old.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
        store = ResultStore(tmp_path)
        store.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
        report = store.gc()
        assert report["removed_stale_entries"] == 1
        assert len(store) == 1
        assert store.load(Job(APP, base_ccnuma_config(), SCALE)) is not None

    def test_gc_age_gates_orphan_tmps(self, warm_store):
        fresh = warm_store.root / "live-writer.tmp"
        fresh.write_text("half a payload")
        dead = warm_store.root / "crashed-writer.tmp"
        dead.write_text("half a payload")
        hour_ago = time.time() - 2 * 3600
        os.utime(dead, (hour_ago, hour_ago))

        report = warm_store.gc()
        assert report["removed_tmp"] == 1 and report["kept_live_tmp"] == 1
        assert fresh.exists() and not dead.exists()

    def test_stats(self, tmp_path, fresh_result):
        store = ResultStore(tmp_path)
        store.save(Job(APP, base_ccnuma_config(), SCALE), fresh_result)
        old = ResultStore(tmp_path, schema_version=STORE_SCHEMA_VERSION - 1)
        old.save(Job(APP, base_scoma_config(), SCALE), fresh_result)
        (tmp_path / "orphan.tmp").write_text("x")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["schema_versions"] == {
            str(STORE_SCHEMA_VERSION): 1,
            str(STORE_SCHEMA_VERSION - 1): 1,
        }
        assert stats["tmp_files"] == 1
        assert stats["quarantined"] == 0
        assert not stats["has_manifest"]


class TestLenAndClear:
    def test_len_ignores_manifest_and_tmps(self, warm_store, fresh_result):
        exe = Executor(workers=1, store=warm_store)
        exe.write_manifest([Job(APP, base_ccnuma_config(), SCALE)])
        (warm_store.root / "orphan.tmp").write_text("x")
        assert warm_store.manifest_path.exists()
        assert len(warm_store) == 1

    def test_clear_removes_entries_and_manifest(self, warm_store):
        exe = Executor(workers=1, store=warm_store)
        exe.write_manifest([Job(APP, base_ccnuma_config(), SCALE)])
        warm_store.clear()
        assert len(warm_store) == 0
        assert not warm_store.manifest_path.exists()

    def test_clear_keeps_fresh_tmps_and_quarantine(self, warm_store):
        entry_path(warm_store).write_text("{truncated")
        warm_store.verify()
        live = warm_store.root / "live-writer.tmp"
        live.write_text("half a payload")
        warm_store.clear()
        assert live.exists()
        assert list(warm_store.quarantine_dir.glob("*.json"))


class TestStoreCli:
    def _populate(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(
            Job(APP, base_ccnuma_config(), SCALE),
            Executor().run_app(APP, base_ccnuma_config(), SCALE),
        )
        return store

    def test_verify_clean_store_exits_zero(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["store", "verify", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "checked 1 entries" in out

    def test_verify_corrupt_store_exits_nonzero_then_clean(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        entry_path(store).write_text("{truncated")
        assert main(["store", "verify", "--store", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt-json" in out
        # The corruption was quarantined, so a second pass is clean.
        assert main(["store", "verify", "--store", str(tmp_path)]) == 0

    def test_gc_cli(self, capsys, tmp_path):
        self._populate(tmp_path)
        orphan = tmp_path / "orphan.tmp"
        orphan.write_text("x")
        assert main(
            ["store", "gc", "--store", str(tmp_path), "--tmp-age", "0"]
        ) == 0
        assert "1 orphan tmp" in capsys.readouterr().out
        assert not orphan.exists()

    def test_stats_cli(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["store", "stats", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"schema v{STORE_SCHEMA_VERSION}" in out
        assert "entries      1" in out
