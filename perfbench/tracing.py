"""Per-layer host time for one traced ``reproduce`` call.

:class:`LayerTracer` wraps the public entry points of each layer from
outside the program; nothing in ``src/`` is instrumented:

- ``workloads``: the app builders in ``registry.APPLICATIONS`` (called
  only on a compiled-program cache miss);
- ``sim``: ``SimulationEngine.__init__`` and ``.run``, with cProfile
  enabled inside them for the split of simulate self time by layer;
- ``executor``: ``Executor.run``, plus the per-job profiles the
  executor already keeps (``job_profiles``);
- ``store``: ``ResultStore.save`` and ``.load``;
- ``render``: every ``compute_*``/``format_*`` function exported by
  ``repro.experiments``.  These are wrapped before ``repro.cli`` is
  imported, so the names the CLI binds are the wrapped ones.

Each wrapper records a span.  A layer's time is its spans' duration
minus the time of spans nested in them (``render`` calls into the
executor and the engine), except ``executor.run_s``, which is the
whole duration of ``Executor.run``.  Pool workers are forked after the
wrappers are installed, so they run wrapped too: a worker rewrites its
own totals to ``spool/<pid>.json`` after every engine call, and
:meth:`LayerTracer.metrics` adds them in.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set

LAYER_MAP_PATH = Path(__file__).resolve().parent / "layer_map.json"

#: (layer in the layer map, reported metric) for the split of simulate
#: self time; ``other`` takes what the map does not place, so the
#: shares sum to 1.
SHARES = (
    ("sim.engine.miss", "sim.engine.miss_share"),
    ("sim.engine.loop", "sim.engine.loop_share"),
    ("sim.engine.remote", "sim.engine.remote_share"),
    ("coherence", "coherence.share"),
    ("caches", "caches.share"),
    ("interconnect", "interconnect.share"),
    ("osint", "osint.share"),
    ("protocols", "protocols.share"),
    ("vm", "vm.share"),
    ("machine", "machine.share"),
    ("other", "other.share"),
)


def load_layer_map(path: Path = LAYER_MAP_PATH) -> dict:
    return json.loads(path.read_text())


def repro_path(filename: str) -> Optional[str]:
    """The ``repro/...`` part of a profiled file name, or None for a
    file outside the package."""
    marker = os.sep + "repro" + os.sep
    index = filename.rfind(marker)
    if index < 0:
        return None
    return filename[index + 1 :].replace(os.sep, "/")


def layer_of(layer_map: dict, filename: str, function: str) -> str:
    """The layer a profiled function's self time is charged to."""
    path = repro_path(filename)
    if path is None:
        return "other"
    layer = layer_map["functions"].get(f"{path}:{function}")
    if layer is not None:
        return layer
    prefixes = [p for p in layer_map["modules"] if path.startswith(p)]
    if not prefixes:
        return "other"
    return layer_map["modules"][max(prefixes, key=len)]


def unmapped_packages(layer_map: dict, filenames) -> Set[str]:
    """``repro`` subpackages among ``filenames`` with no layer map
    entry (their self time would land in ``other`` unnoticed)."""
    missing = set()
    for filename in filenames:
        path = repro_path(filename)
        if path is None or path.count("/") < 2:
            continue
        package = path.rsplit("/", 1)[0] + "/"
        if not any(package.startswith(p) for p in layer_map["modules"]):
            missing.add(package)
    return missing


def profile_layers(profile: cProfile.Profile, layer_map: dict):
    """``(self seconds per layer, unmapped packages)`` of everything
    ``profile`` recorded."""
    profile.create_stats()
    seconds: Counter = Counter()
    for (filename, _, function), (_, _, self_s, _, _) in profile.stats.items():
        seconds[layer_of(layer_map, filename, function)] += self_s
    files = {filename for filename, _, _ in profile.stats}
    return dict(seconds), unmapped_packages(layer_map, files)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (of 100) of ``values``; 0.0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class LayerTracer:
    """Spans and counters for every layer of one ``reproduce`` call."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.layer_map = load_layer_map()
        self.parent_pid = os.getpid()
        #: (executor, job profiles recorded so far, seconds) per
        #: ``Executor.run`` call, in call order.
        self.run_calls = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[float] = []
        # builtins=False charges C calls to the calling Python
        # function, which is where the layer map can place them.
        self.profile = cProfile.Profile(builtins=False)

    def _span(self, layer: str, fn, profiled: bool = False, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                # First call in a forked pool worker: drop the totals
                # it inherited from the parent.
                tracer._reset()
            tracer._stack.append(0.0)
            start = time.perf_counter()
            if profiled:
                tracer.profile.enable()
            try:
                out = fn(*args, **kwargs)
            finally:
                if profiled:
                    tracer.profile.disable()
                elapsed = time.perf_counter() - start
                nested = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                tracer.self_s[layer] += elapsed - nested
                tracer.counts[layer] += 1
            if after is not None:
                after(args, kwargs, out, elapsed)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer.  Must run before ``repro.cli`` is imported,
        because the CLI binds the ``compute_*``/``format_*`` names at
        import."""
        import repro.experiments as experiments
        from repro.experiments.executor import Executor, ResultStore
        from repro.sim.engine import SimulationEngine
        from repro.workloads.registry import APPLICATIONS

        def built(args, kwargs, program, elapsed):
            self.counts["trace_refs"] += program.total_accesses

        for name, (build, description, paper_input) in list(APPLICATIONS.items()):
            APPLICATIONS[name] = (
                self._span("workloads", build, after=built),
                description,
                paper_input,
            )

        def engine_built(args, kwargs, _, elapsed):
            traces = args[2] if len(args) > 2 else kwargs["traces"]
            self.counts["sim_refs"] += traces.total_accesses

        def engine_ran(args, kwargs, result, elapsed):
            self.counts["sim_misses"] += result.total("l1_misses")
            if self.pid != self.parent_pid:
                self._flush_worker()

        SimulationEngine.__init__ = self._span(
            "sim.build", SimulationEngine.__init__, profiled=True, after=engine_built
        )
        SimulationEngine.run = self._span(
            "sim.run", SimulationEngine.run, profiled=True, after=engine_ran
        )

        def executor_ran(args, kwargs, _, elapsed):
            executor = args[0]
            self.run_calls.append((executor, len(executor.job_profiles), elapsed))

        Executor.run = self._span("executor", Executor.run, after=executor_ran)

        def saved(args, kwargs, _, elapsed):
            store, job = args[0], args[1]
            self.counts["store_bytes"] += store.path_for(job).stat().st_size

        ResultStore.save = self._span("store.write", ResultStore.save, after=saved)
        ResultStore.load = self._span("store.read", ResultStore.load)

        def rendered(args, kwargs, _, elapsed):
            self.counts["render.sections"] += 1

        for name in experiments.__all__:
            if name.startswith(("compute_", "format_")):
                after = rendered if name.startswith("format_") else None
                setattr(
                    experiments,
                    name,
                    self._span("render", getattr(experiments, name), after=after),
                )

    def _flush_worker(self) -> None:
        """Rewrite this pool worker's running totals to the spool."""
        layers, unmapped = profile_layers(self.profile, self.layer_map)
        payload = {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "layers": layers,
            "unmapped": sorted(unmapped),
        }
        tmp = self.spool / f"{self.pid}.tmp"
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.spool / f"{self.pid}.json")

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of the traced call, parent and pool
        workers together, keyed by its ``BENCHMARK.json`` name; plus
        ``unmapped``, the repro subpackages the layer map misses."""
        self_s = Counter(self.self_s)
        counts = Counter(self.counts)
        layers, unmapped = profile_layers(self.profile, self.layer_map)
        layers = Counter(layers)
        for path in sorted(self.spool.glob("*.json")):
            worker = json.loads(path.read_text())
            self_s.update(worker["self_s"])
            counts.update(worker["counts"])
            layers.update(worker["layers"])
            unmapped.update(worker["unmapped"])

        # ``reproduce`` drives every phase through one executor.
        executor = self.run_calls[0][0] if self.run_calls else None
        profiles = executor.job_profiles if executor else []
        simulated = [p for p in profiles if p["source"] == "simulated"]
        job_ms = [p["simulate_s"] * 1e3 for p in simulated]
        busy_s = sum(p["simulate_s"] for p in simulated)
        workers = executor.workers if executor else 1
        # The simulate phase is the Executor.run call that resolved the
        # most jobs: the one the pool has to keep busy.
        phase_s, most, before = 0.0, -1, 0
        for _, recorded, elapsed in self.run_calls:
            if recorded - before > most:
                most, phase_s = recorded - before, elapsed
            before = recorded

        simulate_s = sum(layers.values())
        run_s = self_s["sim.run"]
        out = {
            "workloads.build_s": self_s["workloads"],
            "workloads.programs_built": counts["workloads"],
            "workloads.trace_refs": counts["trace_refs"],
            "sim.build_s": self_s["sim.build"],
            "sim.run_s": run_s,
            "sim.jobs": counts["sim.run"],
            "sim.job_p50_ms": percentile(job_ms, 50),
            "sim.job_p90_ms": percentile(job_ms, 90),
            "sim.host_ns_per_ref": run_s * 1e9 / max(counts["sim_refs"], 1),
            "sim.host_ns_per_miss": run_s * 1e9 / max(counts["sim_misses"], 1),
        }
        for layer, metric in SHARES:
            out[metric] = layers[layer] / simulate_s if simulate_s else 0.0
        out.update(
            {
                "executor.run_s": sum(elapsed for _, _, elapsed in self.run_calls),
                "executor.busy_share": busy_s / (workers * phase_s) if phase_s else 0.0,
                "executor.queue_wait_p90_ms": percentile(
                    [p["queue_wait_s"] * 1e3 for p in simulated], 90
                ),
                "executor.dispatch_overhead_s": phase_s - busy_s / workers,
                "store.writes": counts["store.write"],
                "store.write_s": self_s["store.write"],
                "store.bytes": counts["store_bytes"],
                "store.reads": counts["store.read"],
                "store.read_s": self_s["store.read"],
                "store.read_ms_per_entry": self_s["store.read"]
                * 1e3
                / max(counts["store.read"], 1),
                "render.s": self_s["render"],
                "render.sections": counts["render.sections"],
                "unmapped": sorted(unmapped),
            }
        )
        return out
