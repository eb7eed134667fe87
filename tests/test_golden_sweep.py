"""Absolute results of a small sweep, pinned job by job.

The differential suites compare engines with each other, so a change
to code every engine shares (page services, network, directory,
placement) moves them all together and passes unnoticed.  This test
pins what the simulator computes instead: every unique job of

    python -m repro reproduce --scale 0.05 --apps em3d

keyed by app plus a label of its configuration, with the job's
``exec_cycles`` and the sha256 of its result payload (the payload
without its ``config`` entry, hashed like the store's integrity hash),
plus the sha256 of the report the sweep prints (``report_sha256``), so
a change to how the report is assembled cannot pass unnoticed either.
The sweep runs on run-ahead, the production engine, once serially and
once with ``--jobs 2`` for the worker-pool path; both runs must match
the checked-in digest.

A change that moves simulated results on purpose regenerates the
digest, and bumps the store schema, in the same change:

    PYTHONPATH=src python -m tests.test_golden_sweep
"""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_sweep.json"
SWEEP_ARGS = ("reproduce", "--scale", "0.05", "--apps", "em3d")
ENGINES = ("runahead",)
ENTRY = re.compile(r"[0-9a-f]{64}\.json\Z")


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def config_label(config: dict) -> str:
    """Protocol and machine shape for the reader, then a digest of
    every stored identity field except the engine (``obs`` is never
    stored), so two distinct configurations never share a label."""
    identity = {k: v for k, v in config.items() if k != "engine"}
    machine = config["machine"]
    return (
        f"{config['protocol']} {machine['nodes']}x{machine['cpus_per_node']} "
        f"{config['topology']} {_sha256(identity)[:16]}"
    )


def sweep_digest(engine: str, store: pathlib.Path, workers: int = 1) -> tuple:
    """Run the sweep under ``engine`` with ``workers`` processes into the
    empty ``store`` (in a fresh interpreter, so nothing leaks into this
    process) and digest it: ``(sha256 of the report on stdout, {label:
    {exec_cycles, sha256}} for every stored result)``."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *SWEEP_ARGS, "--jobs", str(workers),
         "--engine", engine, "--store", str(store)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
        capture_output=True,
    )
    jobs = {}
    for path in sorted(store.iterdir()):
        if not ENTRY.match(path.name):
            continue
        entry = json.loads(path.read_text())
        result = dict(entry["result"])
        label = f"{entry['app']} {config_label(result.pop('config'))}"
        assert label not in jobs, f"two jobs share the label {label!r}"
        jobs[label] = {"exec_cycles": result["exec_cycles"], "sha256": _sha256(result)}
    return hashlib.sha256(proc.stdout).hexdigest(), jobs


def assert_matches_golden(report: str, got: dict) -> None:
    pinned = json.loads(GOLDEN.read_text())
    golden = pinned["jobs"]
    assert sorted(got) == sorted(golden), "the sweep's job set changed"
    moved = sorted(label for label, pin in golden.items() if got[label] != pin)
    assert not moved, f"{len(moved)} of {len(golden)} jobs moved, first: {moved[:3]}"
    assert report == pinned["report_sha256"], "the rendered report changed"


@pytest.mark.parametrize("engine", ENGINES)
def test_sweep_matches_the_golden_digest(engine, tmp_path):
    assert_matches_golden(*sweep_digest(engine, tmp_path / "store"))


def test_pool_sweep_matches_the_golden_digest(tmp_path):
    assert_matches_golden(*sweep_digest("runahead", tmp_path / "store", workers=2))


def main() -> None:
    """Regenerate ``tests/data/golden_sweep.json``."""
    with tempfile.TemporaryDirectory() as tmp:
        report, jobs = sweep_digest("runahead", pathlib.Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {
                "command": "python -m repro " + " ".join(SWEEP_ARGS),
                "jobs": jobs,
                "report_sha256": report,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(jobs)} jobs and the report digest to {GOLDEN}")


if __name__ == "__main__":
    main()
