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
  the package.  A gate also counts it: dispatching through
  ``simulate()`` executes a small, fixed number of bytecode
  instructions more than constructing the engine directly, whatever
  the run.
"""

import gc
import json
import pathlib
import subprocess
import sys

import pytest

from repro.common.addressing import AddressSpace
from repro.common.params import CacheParams, MachineParams, ObsParams, SystemConfig
from repro.common.records import Access, Barrier
from repro.obs.schema import validate_metrics_file, validate_trace_file
from repro.sim.engine import ENGINES, SimulationEngine, simulate
from repro.workloads.compile import CompiledProgram

from tests.conftest import tiny_config
from tests.property.test_runahead_differential import assert_identical_results


def _traces():
    """A deterministic little rnuma workload: two CPUs fighting over
    one remote page hard enough to cross the tiny threshold (2) and
    relocate, plus private pages for ordinary misses."""
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
    traced = simulate(config, _traces(), engine=engine, obs=obs)
    return plain, traced, obs


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_run_bit_identical(engine, tmp_path):
    plain, traced, _ = _run_pair(engine, tmp_path)
    assert_identical_results(plain, traced)
    # Belt and braces: the serialized payloads (what the store compares
    # and dedups on) must match too.
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


@pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
def test_a_metrics_file_that_cannot_open_leaves_a_complete_trace(
    tmp_path, where
):
    """The trace opens first.  A metrics path that then cannot be
    opened raises its OSError, and the trace already open is closed
    whole, so it loads and passes its schema."""
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    metrics = {"under-a-file": occupied / "m.jsonl", "a-directory": tmp_path}
    trace = tmp_path / "t.trace.json"
    obs = ObsParams(trace_path=str(trace), metrics_path=str(metrics[where]))
    with pytest.raises(OSError):
        simulate(tiny_config("rnuma"), _traces(), obs=obs)
    assert json.loads(trace.read_text())["traceEvents"]
    assert validate_trace_file(str(trace)) == []


def test_a_trace_that_cannot_open_opens_no_metrics_file(tmp_path):
    """The writers open in order and stop at the first that fails, so
    no metrics stream is left behind by a run that never started."""
    metrics = tmp_path / "m.jsonl"
    obs = ObsParams(trace_path=str(tmp_path), metrics_path=str(metrics))
    with pytest.raises(IsADirectoryError):
        simulate(tiny_config("rnuma"), _traces(), obs=obs)
    assert not metrics.exists()


def test_trace_captures_paper_dynamics(tmp_path):
    """The rnuma scenario's behavioral events — refetches, the
    competitive counter crossing its threshold, the relocation — all
    appear in the trace, attributed to real node/cpu tracks."""
    config = tiny_config("rnuma")
    obs = _obs(tmp_path, "dynamics")
    result = simulate(config, _traces(), obs=obs)
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
    r1 = simulate(config, _traces(), obs=obs)
    r2 = simulate(config, _traces(), obs=full)
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
    result = simulate(config, _traces(), obs=obs)
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
        "from repro.sim.engine import simulate\n"
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


def test_disabled_obs_installs_no_wrapper(monkeypatch):
    """With obs absent or disabled nothing touches the engine: the
    engine ``simulate()`` runs has ``_miss`` as the plain class method,
    with no observing wrapper in between."""
    wrapped = []
    run = SimulationEngine.run

    def spy(engine):
        wrapped.append("_miss" in engine.__dict__)
        return run(engine)

    monkeypatch.setattr(SimulationEngine, "run", spy)
    for obs in (None, ObsParams()):
        simulate(tiny_config("ccnuma"), _traces(), obs=obs)
    assert wrapped == [False, False]


# ----------------------------------------------------------------------
# The disabled-obs dispatch gate: three miss-dominated scenarios on the
# paper's 8-node x 4-processor machine.
# ----------------------------------------------------------------------

SPACE = AddressSpace()
PAPER_MACHINE = MachineParams()


def _miss_stream_program(n: int) -> CompiledProgram:
    """One cpu misses on every reference; 31 park at the barrier."""
    stride = SPACE.block_size
    span = 4 * 1024 * 1024
    t = [Access((i * stride * 7) % span, think=1) for i in range(n)]
    traces = [t + [Barrier(0)]]
    traces += [[Barrier(0)] for _ in range(1, PAPER_MACHINE.total_cpus)]
    return CompiledProgram("gate-miss-stream", traces=traces)


def _migratory_program(n: int) -> CompiledProgram:
    """A 256-block region migrates processor to processor, phase by
    phase; every access is a write miss on lines the previous owner
    still holds (intra-node hand-offs between slots, inter-node
    ownership steals every cpus_per_node phases)."""
    region_blocks = 256
    total = PAPER_MACHINE.total_cpus
    phases = max(total, n // region_blocks)
    traces = [[] for _ in range(total)]
    blk = SPACE.block_size
    for p in range(phases):
        tr = traces[p % total]
        for i in range(region_blocks):
            tr.append(Access(i * blk, is_write=True, think=0))
        barrier = Barrier(p)
        for t in traces:
            t.append(barrier)
    return CompiledProgram("gate-migratory", traces=traces)


#: page_thrash geometry: frames per node / private pages per cpu.
_THRASH_FRAMES = 8
_THRASH_PAGES_PER_CPU = 16


def _page_thrash_program(n: int) -> CompiledProgram:
    """Relocation-heavy sweeps: every cpu's private pages live on a
    *remote* home (a foreign cpu first-touches them), are refetched
    past the relocation threshold by conflict-stride sweeps, and fight
    over a page cache with too few frames — so pages relocate to
    S-COMA, get evicted, remap CC-NUMA, and relocate again."""
    total = PAPER_MACHINE.total_cpus
    pages_per_cpu = _THRASH_PAGES_PER_CPU
    offsets = (0, 16, 32, 48)  # conflict stride inside each page
    page = SPACE.page_size
    blk = SPACE.block_size

    def base(c: int, p: int) -> int:
        return (c * pages_per_cpu + p) * page

    traces = [[] for _ in range(total)]
    # First-touch each cpu's region from another node so its home is
    # remote (refetch detection only fires at a remote home).
    for c in range(total):
        toucher = (c + PAPER_MACHINE.cpus_per_node) % total
        for p in range(pages_per_cpu):
            traces[toucher].append(Access(base(c, p), think=0))
    barrier = Barrier(0)
    for t in traces:
        t.append(barrier)
    sweeps = max(2, n // (total * pages_per_cpu * len(offsets)))
    for c in range(total):
        tr = traces[c]
        for _ in range(sweeps):
            for p in range(pages_per_cpu):
                for off in offsets:
                    tr.append(
                        Access(base(c, p) + off * blk, is_write=off == 0, think=0)
                    )
        tr.append(Barrier(1))
    return CompiledProgram("gate-page-thrash", traces=traces)


def _gate_scenarios():
    cc = SystemConfig(
        protocol="ccnuma", machine=PAPER_MACHINE, caches=CacheParams(), space=SPACE
    )
    thrash = SystemConfig(
        protocol="rnuma",
        machine=PAPER_MACHINE,
        caches=CacheParams(
            block_cache_size=128,
            page_cache_size=_THRASH_FRAMES * SPACE.page_size,
        ),
        space=SPACE,
        relocation_threshold=4,
    )
    # Counts are exact, so size buys no precision: two miss_stream sizes
    # show growth with the work, and the other two run at their floors.
    return {
        "miss_stream/200": (cc, _miss_stream_program(200)),
        "miss_stream/400": (cc, _miss_stream_program(400)),
        "migratory": (cc, _migratory_program(0)),
        "page_thrash": (thrash, _page_thrash_program(0)),
    }


def _opcodes(run) -> int:
    """Bytecode instructions ``run()`` executes, over every Python frame
    it enters.  Garbage collection is off meanwhile: a collection runs
    the ``gc.callbacks`` (hypothesis registers one) inside whatever
    frame triggered it."""
    executed = 0

    def count(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return count

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return count

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    return executed


def test_disabled_obs_dispatch_adds_constant_bytecode():
    """The zero-cost-off claim, counted.  Per scenario, the bytecode
    ``simulate()`` executes without ``obs`` (the path every caller
    takes) minus that of the run-ahead engine
    constructed directly (the pre-obs code path).  Any disabled-obs
    cost that grows with the simulated work — a per-miss hook, a
    per-reference check — makes that difference vary across scenarios
    and sizes; the rest of dispatch must stay a few dozen instructions.
    Unlike a timing, the count cannot flake."""
    # CPython 3.12.1 delivers no opcode events to the first traced call
    # of a process.
    _opcodes(lambda: None)
    extra = {}
    for name, (config, program) in _gate_scenarios().items():
        # Warm the program and page maps, and check the scenario still
        # stresses the miss path.
        engine = SimulationEngine(config, program)
        misses = engine.run().total("l1_misses")
        assert misses / engine.sched_stats["refs"] > 0.9, name
        extra[name] = _opcodes(lambda: simulate(config, program)) - _opcodes(
            lambda: SimulationEngine(config, program).run()
        )
    print(f"obs-off dispatch: extra bytecode per run {extra}")
    assert len(set(extra.values())) == 1, (
        f"disabled instrumentation costs more as the run grows: {extra}"
    )
    assert 0 <= extra["miss_stream/200"] < 100, extra
