"""First-touch page placement.

The paper uses a first-touch migration policy: at the start of the
parallel phase, the first node to request a page becomes its home
(Section 2.1, citing Marchetti et al.).  For a trace-driven simulator
that is equivalent to a pre-pass over the merged trace assigning each
page's home to the node of the first processor that touches it.

Both placement passes accept any trace representation the engine does
— packed columns, TraceViews, a compiled program, or legacy
Access/Barrier sequences — and work directly on the packed words, so
a placement pass over a compiled program allocates no per-item
objects.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.common.addressing import AddressSpace
from repro.common.params import MachineParams
from repro.common.records import ADDR_SHIFT, as_columns


def resolve_home(homes: Dict[int, int], page: int, node_id: int) -> int:
    """Home node of ``page``, first-touching it at ``node_id`` if absent.

    The shared late-first-touch fallback of every engine's miss
    preamble: a page missing from the (possibly user-supplied, possibly
    partial) placement map is adopted by the first node to fault on it,
    and the map is updated so all later misses see the same home.
    Called only on unmapped-page faults (once per page per node), so it
    stays off the per-miss hot path.
    """
    home = homes.get(page)
    if home is None:
        home = node_id
        homes[page] = home
    return home


def round_robin_homes(
    traces: Sequence[Sequence[object]],
    machine: MachineParams,
    space: AddressSpace,
) -> Dict[int, int]:
    """Assign touched pages to nodes round-robin by page number.

    The naive placement the paper's first-touch policy is measured
    against (LaRowe & Ellis; Marchetti et al.): page p lives on node
    ``p % nodes`` regardless of who uses it.  Used by the placement
    ablation benchmark.
    """
    columns = as_columns(traces)
    page_unpack = ADDR_SHIFT + space.page_shift
    nodes = machine.nodes
    homes: Dict[int, int] = {}
    for column in columns:
        for word in column:
            if word >= 0:
                page = word >> page_unpack
                if page not in homes:
                    homes[page] = page % nodes
    return homes


def first_touch_homes(
    traces: Sequence[Sequence[object]],
    machine: MachineParams,
    space: AddressSpace,
) -> Dict[int, int]:
    """Assign each touched page a home node by first touch.

    ``traces`` is one item sequence per CPU (global CPU ids).  Processors
    advance in lockstep over their traces for the purposes of "first":
    the interleaving is round-robin by item index, a faithful stand-in
    for the paper's "touch pages during initialization" idiom, where
    every node touches its own data before the timed phase.

    Returns a page -> home-node dict.
    """
    columns = as_columns(traces)
    page_unpack = ADDR_SHIFT + space.page_shift
    homes: Dict[int, int] = {}
    cursors: List[int] = [0] * len(columns)
    remaining = sum(len(c) for c in columns)
    while remaining:
        progressed = False
        for cpu, column in enumerate(columns):
            i = cursors[cpu]
            if i >= len(column):
                continue
            word = column[i]
            cursors[cpu] = i + 1
            remaining -= 1
            progressed = True
            if word >= 0:
                page = word >> page_unpack
                if page not in homes:
                    homes[page] = machine.node_of_cpu(cpu)
        if not progressed:
            break
    return homes
