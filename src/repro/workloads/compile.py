"""Compiled (columnar) programs: the shared trace artifact.

A :class:`CompiledProgram` is the array-backed form of a workload: one
packed ``array('q')`` column per CPU (see :mod:`repro.common.records`
for the word layout), O(1) access/barrier counters maintained by the
builder, and a memoized first-touch placement map.  It is what the
registry caches, what the engine consumes natively, and what the
executor ships to worker processes — one generation pass serves every
protocol in a sweep.

The legacy object API survives as a lazy view: ``program.traces`` is a
list of :class:`repro.common.records.TraceView`, which decode words to
:class:`Access`/:class:`Barrier` on demand.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.addressing import AddressSpace
from repro.common.errors import TraceError
from repro.common.params import MachineParams
from repro.common.records import (
    ADDR_SHIFT,
    TraceView,
    as_columns,
    column_profile,
    validate_barrier_sequences,
)


class CompiledProgram:
    """A complete multiprocessor workload in columnar form.

    Construction paths:

    - ``CompiledProgram(name, columns=...)`` — adopt packed columns.
      Unless the trusted per-column ``access_counts`` and ``barrier_ids``
      are also supplied (the :class:`~repro.workloads.base.TraceBuilder`
      maintains them incrementally), the columns are scanned once to
      derive the counters and to validate that every CPU crosses the
      same barrier sequence.
    - ``CompiledProgram(name, traces=...)`` — compile legacy per-CPU
      Access/Barrier sequences (always validated).
    """

    def __init__(
        self,
        name: str,
        traces: Optional[Sequence[Sequence[object]]] = None,
        description: str = "",
        paper_input: str = "",
        scaled_input: str = "",
        metadata: Optional[Dict[str, object]] = None,
        *,
        columns: Optional[List[array]] = None,
        access_counts: Optional[List[int]] = None,
        barrier_ids: Optional[List[int]] = None,
    ) -> None:
        if columns is None:
            if traces is None:
                raise TraceError(f"program {name!r} needs traces or columns")
            columns = as_columns(traces)
            access_counts = None  # never trust counters for foreign input
            barrier_ids = None
        self.name = name
        self.columns: List[array] = list(columns)
        self.description = description
        self.paper_input = paper_input
        self.scaled_input = scaled_input
        self.metadata: Dict[str, object] = dict(metadata or {})
        if access_counts is None or barrier_ids is None:
            barrier_ids = validate_barrier_sequences(self.columns)
            barriers_per_cpu = len(barrier_ids)
            access_counts = [len(c) - barriers_per_cpu for c in self.columns]
        self.access_counts: List[int] = list(access_counts)
        self.barrier_ids: List[int] = list(barrier_ids)
        self._total_accesses = sum(self.access_counts)
        self._views: Optional[List[TraceView]] = None
        #: (nodes, cpus_per_node, page_shift) -> first-touch page->home map
        self._homes_cache: Dict[Tuple[int, int, int], Dict[int, int]] = {}
        self._profile: Optional[List[Tuple[int, int, int]]] = None

    # -- identity ------------------------------------------------------

    @property
    def cpu_count(self) -> int:
        return len(self.columns)

    @property
    def total_accesses(self) -> int:
        """Data references across all CPUs (O(1): builder-maintained)."""
        return self._total_accesses

    @property
    def barrier_count(self) -> int:
        """Global barriers the program crosses (O(1))."""
        return len(self.barrier_ids)

    @property
    def nbytes(self) -> int:
        """Size of the packed trace buffers in bytes."""
        return sum(len(c) * c.itemsize for c in self.columns)

    @property
    def traces(self) -> List[TraceView]:
        """Legacy object view: one lazy Access/Barrier sequence per CPU."""
        if self._views is None:
            self._views = [TraceView(c) for c in self.columns]
        return self._views

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({self.name!r}, cpus={self.cpu_count}, "
            f"accesses={self._total_accesses}, barriers={self.barrier_count})"
        )

    # -- derived views -------------------------------------------------

    def pages_touched(self, space: AddressSpace) -> Set[int]:
        """Distinct pages referenced by any CPU (one pass over columns)."""
        shift = ADDR_SHIFT + space.page_shift
        pages: Set[int] = set()
        for column in self.columns:
            pages.update(word >> shift for word in column if word >= 0)
        return pages

    def per_cpu_profile(self) -> List[Tuple[int, int, int]]:
        """Per-CPU ``(accesses, think_cycles, runs)`` triples, memoized.

        ``accesses`` and ``think_cycles`` let the engine account L1-hit
        and busy counters analytically (a completed run executes every
        access exactly once, and every access contributes
        ``think + 1`` busy cycles whether it hits or misses), so the
        hot loop carries no per-reference stats work at all.  ``runs``
        is the number of barrier-free access stretches — the upper
        bound on how far the run-ahead scheduler could drain this CPU
        if no other CPU ever intervened.  One pass per program
        lifetime; shared by every protocol of a sweep.
        """
        if self._profile is None:
            self._profile = [column_profile(c) for c in self.columns]
        return self._profile

    def run_length_stats(self) -> Dict[str, float]:
        """Summary of the per-CPU run structure (``trace-stats`` output).

        ``mean_run_length`` is accesses per barrier-free stretch — how
        much uninterrupted work a CPU has between synchronization
        points, the trace-side ceiling on run-ahead scheduling.
        """
        profile = self.per_cpu_profile()
        runs = sum(r for _, _, r in profile)
        accesses = self._total_accesses
        think = sum(th for _, th, _ in profile)
        return {
            "runs": runs,
            "mean_run_length": accesses / runs if runs else 0.0,
            "mean_think_cycles": think / accesses if accesses else 0.0,
        }

    def first_touch_homes(
        self, machine: MachineParams, space: AddressSpace
    ) -> Dict[int, int]:
        """First-touch page->home map, memoized per machine/page shape.

        The map depends only on the trace and the (machine, page-size)
        geometry — not the protocol — so one placement pass serves a
        whole cross-protocol sweep.  Callers that mutate the map (the
        engine adds late first-touches) must copy it first.
        """
        from repro.osint.placement import first_touch_homes

        key = (machine.nodes, machine.cpus_per_node, space.page_shift)
        homes = self._homes_cache.get(key)
        if homes is None:
            homes = first_touch_homes(self.columns, machine, space)
            self._homes_cache[key] = homes
        return homes


def compile_program(
    name: str,
    traces: Iterable[Sequence[object]],
    **kwargs,
) -> CompiledProgram:
    """Compile legacy per-CPU Access/Barrier sequences into a program."""
    return CompiledProgram(name, traces=list(traces), **kwargs)
