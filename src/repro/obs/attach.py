"""Attach instrumentation to a constructed engine and run it.

This is the only obs module that knows engine internals, and the only
place instrumentation touches the hot path.  The contract it exploits:

* Every engine's run loop binds ``miss = self._miss`` exactly once at
  run start, so replacing ``engine._miss`` with a wrapper *before*
  :meth:`run` intercepts every miss with zero changes to engine code —
  and installing nothing leaves the engine byte-identical to an
  uninstrumented build (the zero-cost-off invariant).
* Both engines' ``_miss`` take ``(cpu, b, w, st, now)`` and return the
  added latency.
* Every stat mutation a miss performs on behalf of the requester —
  including those made inside the osint page services, R-NUMA's
  refetch counter among them — lands on the requesting node's
  ``NodeStats``.
  Snapshotting the node's live counters around the inner call therefore
  classifies the transaction without knowing which engine executed it.

The wrapper is observational only: it forwards arguments and the
returned latency untouched and mutates no simulator state, so traced
runs are bit-identical to untraced ones (pinned by
``tests/property/test_obs_differential.py`` across both engines).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List, Optional

from repro.common.params import ObsParams, config_to_dict
from repro.common.stats import NodeStats
from repro.obs.metrics import MetricsWriter
from repro.obs.provenance import provenance_block
from repro.obs.trace import TraceWriter

#: The analytic NodeStats counters: the engines settle them after the
#: run loop, so they only appear in the metrics ``final`` line.
_ANALYTIC_COUNTERS = (
    "l1_hits",
    "l1_misses",
    "busy_cycles",
    "stall_cycles",
    "barrier_wait_cycles",
)

#: NodeStats counters that are live during ``_miss`` (mutated as the
#: miss executes): every other field, in declaration order, so a new
#: counter is tracked without an edit here.
TRACKED_COUNTERS = tuple(
    f.name for f in fields(NodeStats) if f.name not in _ANALYTIC_COUNTERS
)

#: Indices into a TRACKED_COUNTERS snapshot, by name.
_IDX = {name: i for i, name in enumerate(TRACKED_COUNTERS)}

#: (delta counter, event name) for the ``"X"`` miss event, checked in
#: order; the first counter that moved names the service path.  A
#: coherence miss also performs a remote fetch and a remote fetch may
#: also record a block/page-cache miss, hence most-specific first.
_MISS_NAMES = (
    ("coherence_misses", "coherence_miss"),
    ("remote_fetches", "remote_fetch"),
    ("block_cache_hits", "block_cache_hit"),
    ("page_cache_hits", "page_cache_hit"),
    ("cache_to_cache", "cache_to_cache"),
    ("local_fills", "local_fill"),
)

#: (delta counter, instant-event name) in the ``page`` category.
_PAGE_EVENTS = (
    ("page_faults", "page_fault"),
    ("page_allocations", "page_allocation"),
    ("page_replacements", "page_replacement"),
    ("relocations", "page_relocation"),
    ("tlb_shootdowns", "tlb_shootdown"),
)


class _Observer:
    """Shared per-run state for the miss wrappers and samplers."""

    def __init__(self, engine: Any, obs: ObsParams) -> None:
        self.engine = engine
        self.obs = obs
        self.threshold = engine.config.relocation_threshold
        self.trace: Optional[TraceWriter] = None
        self.metrics: Optional[MetricsWriter] = None
        self.next_due = obs.metrics_interval

    def open(self, name: str) -> None:
        """Open the writers ``obs`` asks for, recording ``name`` as the
        engine.  A writer that fails to open leaves the ones before it
        open, for :meth:`close` to complete."""
        obs, config = self.obs, self.engine.config
        if obs.trace_path is not None:
            self.trace = TraceWriter(
                obs.trace_path,
                obs.trace_categories,
                other_data={
                    "engine": name,
                    "protocol": config.protocol,
                    "time_unit": "cycles",
                    "generator": "repro.obs",
                },
            )
            mp = config.machine
            self.trace.name_tracks(
                (mp.node_of_cpu(c), c) for c in range(mp.total_cpus)
            )
        if obs.metrics_path is not None:
            self.metrics = MetricsWriter(
                obs.metrics_path,
                meta={
                    "engine": name,
                    "interval": obs.metrics_interval,
                    "counters": list(TRACKED_COUNTERS),
                    "config": config_to_dict(config),
                    "provenance": provenance_block(),
                },
            )

    # -- event emission -------------------------------------------------

    def record(
        self,
        nid: int,
        cpu: int,
        now: int,
        lat: int,
        page: int,
        block: int,
        write: bool,
        before: tuple,
        after: tuple,
        counter_value: int,
    ) -> None:
        """Classify one miss from its stat deltas and emit events."""
        trace = self.trace
        if trace is not None:
            name = "miss"
            for field, label in _MISS_NAMES:
                if after[_IDX[field]] != before[_IDX[field]]:
                    name = label
                    break
            trace.complete(
                name,
                "miss",
                nid,
                cpu,
                now,
                lat,
                args={"block": block, "page": page, "write": write},
            )
            inval = after[_IDX["invalidations_sent"]] - before[_IDX["invalidations_sent"]]
            if inval or after[_IDX["coherence_misses"]] != before[_IDX["coherence_misses"]]:
                trace.instant(
                    "invalidation_fanout" if inval else "coherence_miss",
                    "coherence",
                    nid,
                    cpu,
                    now,
                    args={"page": page, "invalidations": inval},
                )
            for field, label in _PAGE_EVENTS:
                delta = after[_IDX[field]] - before[_IDX[field]]
                if delta:
                    trace.instant(
                        label, "page", nid, cpu, now,
                        args={"page": page, "count": delta},
                    )
            if after[_IDX["refetches"]] != before[_IDX["refetches"]]:
                trace.instant(
                    "refetch", "counter", nid, cpu, now,
                    args={"page": page, "counter": counter_value},
                )
            if after[_IDX["relocations"]] != before[_IDX["relocations"]]:
                trace.instant(
                    "counter_threshold", "counter", nid, cpu, now,
                    args={"page": page, "threshold": self.threshold},
                )
        if self.metrics is not None and now >= self.next_due:
            self.sample(now)
            self.next_due = now + self.obs.metrics_interval

    # -- metrics snapshots ----------------------------------------------

    def _body(self, full: bool) -> Dict[str, Any]:
        machine = self.engine.machine
        network = machine.network
        nodes: List[Dict[str, int]] = []
        hist: Dict[str, int] = {}
        pages_tracked = 0
        for node in machine.nodes:
            if full:
                nodes.append(node.stats.as_dict())
            else:
                ns = node.stats
                nodes.append({f: getattr(ns, f) for f in TRACKED_COUNTERS})
            for count in node.refetch_counters.values():
                pages_tracked += 1
                key = str(count)
                hist[key] = hist.get(key, 0) + 1
        return {
            "nodes": nodes,
            "network": {
                "messages": network.messages,
                "round_trips": network.round_trips,
                "one_ways": network.one_ways,
                "ni_busy_cycles": sum(r.busy_cycles for r in network.nis),
                "rad_busy_cycles": sum(r.busy_cycles for r in network.rads),
                "link_busy_cycles": sum(r.busy_cycles for r in network.links),
                "bus_busy_cycles": sum(n.bus.busy_cycles for n in machine.nodes),
            },
            "pages": {"tracked": pages_tracked, "counter_hist": hist},
        }

    def sample(self, now: int) -> None:
        self.metrics.sample(now, self._body(full=False))

    def finish(self, result: Any) -> None:
        if self.metrics is not None:
            body = self._body(full=True)
            body["exec_cycles"] = result.exec_cycles
            self.metrics.final(result.exec_cycles, body)

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()
        if self.metrics is not None:
            self.metrics.close()


def _install(engine: Any, observer: _Observer) -> None:
    """Replace ``engine._miss`` with the observing wrapper."""
    inner = engine._miss
    snapshot = TRACKED_COUNTERS
    shift = engine._block_page_shift
    mctx = engine._mctx

    def wrapper(cpu: int, b: int, w: int, st: int, now: int) -> int:
        ctx = mctx[cpu]
        node, nid, ns = ctx[0], ctx[1], ctx[2]
        before = tuple(getattr(ns, f) for f in snapshot)
        lat = inner(cpu, b, w, st, now)
        after = tuple(getattr(ns, f) for f in snapshot)
        if after != before:
            page = b >> shift
            observer.record(
                nid, cpu, now, lat, page, b, bool(w), before, after,
                node.refetch_counters.get(page, 0),
            )
        return lat

    engine._miss = wrapper


def observed_run(engine: Any, obs: ObsParams, name: str) -> Any:
    """Run ``engine`` (the backend called ``name``) with instrumentation
    attached; return its result.

    The engine must not have been run yet (the hook is captured before
    the run loop binds it).  Writers are closed even if the run raises
    or a later writer cannot be opened, so a crashed run still leaves a
    loadable (if truncated-at-a-record) metrics stream and a
    syntactically complete trace.
    """
    observer = _Observer(engine, obs)
    try:
        observer.open(name)
        _install(engine, observer)
        result = engine.run()
        observer.finish(result)
        return result
    finally:
        observer.close()
