"""Differential tests for the instrumentation layer.

The obs contract has two sides, and each gets pinned here:

* **Observational-only when on** — a traced + metered run returns a
  bit-identical :class:`~repro.sim.results.SimulationResult` to an
  untraced run, for every engine backend, while the emitted artifacts
  pass their checked-in schemas and carry the events the paper's
  dynamics produce (refetches, threshold crossings, relocations).
* **Structurally zero-cost when off** — a disabled-obs run never
  imports the obs hook module and never installs a ``_miss`` wrapper
  on the engine, so the hot path is byte-identical to a build without
  the package.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.common.params import ObsParams
from repro.obs.schema import validate_metrics_file, validate_trace_file
from repro.sim import simulate
from repro.sim.factory import make_engine

from tests.conftest import tiny_config
from tests.property.test_runahead_differential import assert_identical_results

ENGINES = ("runahead", "reference")


def _traces():
    """A deterministic little rnuma workload: two CPUs fighting over
    one remote page hard enough to cross the tiny threshold (2) and
    relocate, plus private pages for ordinary misses."""
    from repro.common.records import Access, Barrier

    from tests.conftest import TINY_SPACE

    page = TINY_SPACE.page_size
    blk = TINY_SPACE.block_size
    t0, t1 = [], []
    for i in range(40):
        t0.append(Access(3 * page + (i % 8) * blk, is_write=i % 4 == 0, think=1))
        t0.append(Access(0 * page + (i % 4) * blk, think=0))
        t1.append(Access(3 * page + ((i + 3) % 8) * blk, is_write=i % 5 == 0, think=1))
        t1.append(Access(1 * page + (i % 4) * blk, think=0))
    t0.append(Barrier(0))
    t1.append(Barrier(0))
    return [t0, t1]


def _obs(tmp_path, name, **overrides):
    return ObsParams(
        trace_path=str(tmp_path / f"{name}.trace.json"),
        metrics_path=str(tmp_path / f"{name}.metrics.jsonl"),
        metrics_interval=overrides.pop("metrics_interval", 200),
        **overrides,
    )


def _run_pair(engine, tmp_path):
    config = tiny_config("rnuma")
    obs = _obs(tmp_path, engine)
    plain = simulate(config, _traces(), engine=engine)
    traced = simulate(config.with_obs(obs), _traces(), engine=engine)
    return plain, traced, obs


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_run_bit_identical(engine, tmp_path):
    plain, traced, _ = _run_pair(engine, tmp_path)
    assert_identical_results(plain, traced)
    # Belt and braces: the serialized payloads (what the store compares
    # and dedups on) must match too, obs excluded from config identity.
    assert plain.to_json_dict() == traced.to_json_dict()


@pytest.mark.parametrize("engine", ENGINES)
def test_emitted_artifacts_pass_schemas(engine, tmp_path):
    _, _, obs = _run_pair(engine, tmp_path)
    assert validate_trace_file(obs.trace_path) == []
    assert validate_metrics_file(obs.metrics_path) == []
    # The backend that ran is recorded in both artifacts' metadata.
    trace_meta = json.loads(open(obs.trace_path).read())["otherData"]
    metrics_meta = json.loads(open(obs.metrics_path).readline())
    assert trace_meta["engine"] == metrics_meta["engine"] == engine


def test_trace_captures_paper_dynamics(tmp_path):
    """The rnuma scenario's behavioral events — refetches, the
    competitive counter crossing its threshold, the relocation — all
    appear in the trace, attributed to real node/cpu tracks."""
    config = tiny_config("rnuma")
    obs = _obs(tmp_path, "dynamics")
    result = simulate(config.with_obs(obs), _traces())
    assert result.total("relocations") > 0, "scenario must relocate"
    events = json.loads(open(obs.trace_path).read())["traceEvents"]
    names = {e["name"] for e in events}
    assert "refetch" in names
    assert "counter_threshold" in names
    assert "page_relocation" in names
    assert "remote_fetch" in names
    crossings = [e for e in events if e["name"] == "counter_threshold"]
    assert all(
        e["args"]["threshold"] == config.relocation_threshold for e in crossings
    )
    relocations = sum(
        e["args"]["count"] for e in events if e["name"] == "page_relocation"
    )
    assert relocations == result.total("relocations")
    refetches = sum(1 for e in events if e["name"] == "refetch")
    assert refetches == result.total("refetches")
    # Track identity: pids are node ids, tids are cpu ids.
    mp = config.machine
    for e in events:
        if e["ph"] == "M":
            continue
        assert 0 <= e["pid"] < mp.nodes
        assert 0 <= e["tid"] < mp.total_cpus
        assert e["pid"] == mp.node_of_cpu(e["tid"])


def test_category_filter_drops_events(tmp_path):
    config = tiny_config("rnuma")
    obs = ObsParams(
        trace_path=str(tmp_path / "filtered.trace.json"),
        trace_categories=("counter",),
    )
    full = ObsParams(trace_path=str(tmp_path / "full.trace.json"))
    r1 = simulate(config.with_obs(obs), _traces())
    r2 = simulate(config.with_obs(full), _traces())
    assert_identical_results(r1, r2)
    filtered = json.loads(open(obs.trace_path).read())["traceEvents"]
    cats = {e["cat"] for e in filtered if e["ph"] != "M"}
    assert cats == {"counter"}
    everything = json.loads(open(full.trace_path).read())["traceEvents"]
    assert len(everything) > len(filtered)


def test_metrics_samples_are_monotonic(tmp_path):
    config = tiny_config("rnuma")
    obs = ObsParams(
        metrics_path=str(tmp_path / "mono.metrics.jsonl"), metrics_interval=100
    )
    result = simulate(config.with_obs(obs), _traces())
    records = [
        json.loads(line) for line in open(obs.metrics_path) if line.strip()
    ]
    assert records[0]["type"] == "meta"
    samples = [r for r in records if r["type"] == "sample"]
    finals = [r for r in records if r["type"] == "final"]
    assert len(finals) == 1
    assert len(samples) >= 1
    # Cumulative counters: every tracked counter is non-decreasing
    # across samples and bounded by the final settled value.
    for field in ("remote_fetches", "page_faults", "relocations"):
        trajectory = [sum(n[field] for n in s["nodes"]) for s in samples]
        assert trajectory == sorted(trajectory)
        assert trajectory[-1] <= result.total(field)
    final = finals[0]
    assert final["exec_cycles"] == result.exec_cycles
    assert sum(n["l1_misses"] for n in final["nodes"]) == result.total("l1_misses")


def test_disabled_obs_is_structurally_absent():
    """The zero-cost-off claim, checked structurally: a fresh process
    that runs a disabled-obs simulation must finish without ever
    importing the obs hook module."""
    code = (
        "import sys\n"
        "from tests.conftest import tiny_config\n"
        "from repro.sim import simulate\n"
        "from repro.common.records import Access, Barrier\n"
        "simulate(tiny_config('rnuma'), [[Access(0), Barrier(0)], [Barrier(0)]])\n"
        "assert 'repro.obs.attach' not in sys.modules, 'hook module loaded'\n"
        "assert 'repro.obs.trace' not in sys.modules, 'trace writer loaded'\n"
    )
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=str(repo_root),
        env={
            **__import__("os").environ,
            "PYTHONPATH": str(repo_root / "src"),
        },
    )
    assert proc.returncode == 0, proc.stderr


def test_disabled_obs_installs_no_wrapper():
    """With obs disabled nothing touches the engine: ``_miss`` stays
    the plain class method, with no observing wrapper in between."""
    config = tiny_config("ccnuma")
    engine = make_engine(config, _traces())
    assert "_miss" not in engine.__dict__
