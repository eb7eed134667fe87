"""One SMP node: processors with private L1s, a memory bus, and the
remote-access device (block cache, page cache, fine-grain tags,
reactive counters).  The page cache's frame map doubles as the S-COMA
RAD's translation table.

Which of these components a given protocol actually exercises is decided
by how the OS maps its remote pages (:mod:`repro.osint.services`); the
node always carries all of them (an R-NUMA RAD *is* the union of the
CC-NUMA and S-COMA RADs, paper Figure 4a).
No TLB is modelled: a shootdown is a Table 2 cost and a counter (see
:mod:`repro.osint.services`).

The L1s, the block cache and the fine-grain tag store are column-backed
(see :mod:`repro.caches.l1`, :mod:`repro.caches.block_cache` and
:mod:`repro.caches.finegrain`): the simulation engine reads their
buffers directly on its hot path.  ``bc_cols`` holds the block cache's
columns for every protocol, the ideal machine's infinite cache
included.  The node also precomputes ``peer_l1s`` — for each processor
slot, the other slots' caches — so the engine's intra-node snoop loops
iterate a ready-made list instead of re-filtering ``l1s`` on every miss.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.caches.block_cache import BlockCache
from repro.caches.finegrain import FineGrainTags
from repro.caches.l1 import L1Cache
from repro.caches.page_cache import PageCache
from repro.common.params import SystemConfig
from repro.common.stats import NodeStats
from repro.interconnect.resource import BusyResource
from repro.vm.page_table import PageTable


class Node:
    """Hardware state for one SMP node."""

    __slots__ = (
        "node_id",
        "l1s",
        "l1_arrays",
        "peer_l1s",
        "peer_arrays",
        "tag_rows",
        "bus",
        "block_cache",
        "bc_cols",
        "page_cache",
        "tags",
        "page_table",
        "page_state",
        "refetch_counters",
        "coherence_lost",
        "stats",
    )

    def __init__(self, node_id: int, config: SystemConfig) -> None:
        self.node_id = node_id
        space = config.space
        caches = config.caches
        cpus = config.machine.cpus_per_node

        self.l1s: List[L1Cache] = [
            L1Cache(caches.l1_blocks(space)) for _ in range(cpus)
        ]
        # slot -> every *other* slot's L1 (the caches a bus transaction
        # from that slot snoops).  Empty on single-processor nodes, so
        # the engine's snoop loops cost nothing there.
        self.peer_l1s: List[List[L1Cache]] = [
            [l1 for j, l1 in enumerate(self.l1s) if j != i]
            for i in range(cpus)
        ]
        # The engine's snoop/invalidate loops read raw L1 columns:
        # precompute (mask, block_at, state_at) triples — all slots and
        # per-slot peers — so a loop iteration costs zero attribute
        # loads.  No structure replaces the arrays while the engine
        # runs, so these aliases stay live for the run.
        self.l1_arrays = [(l1.mask, l1.block_at, l1.state_at) for l1 in self.l1s]
        self.peer_arrays = [
            [self.l1_arrays[j] for j in range(cpus) if j != i]
            for i in range(cpus)
        ]
        self.bus = BusyResource(f"bus{node_id}")

        if config.protocol == "ideal":
            self.block_cache = BlockCache.infinite_cache()
        else:
            self.block_cache = BlockCache(caches.block_cache_blocks(space))
        # The block cache's (mask, block_at, writable_at, dirty_at) as
        # one tuple; finite, infinite and zero-frame caches all expose
        # them.  Same identity-stability argument as l1_arrays.
        bc = self.block_cache
        self.bc_cols = (bc.mask, bc.block_at, bc.writable_at, bc.dirty_at)

        if config.protocol in ("scoma", "rnuma"):
            frames = caches.page_cache_frames(space)
        else:
            frames = 0
        self.page_cache = PageCache(frames, policy=caches.page_replacement)
        self.tags = FineGrainTags(space.blocks_per_page)
        # The tag store's public row map, cached one attribute hop
        # closer (same identity-stability argument as page_state).
        self.tag_rows = self.tags.rows
        self.page_table = PageTable()
        # The page table's public mapping column, cached one attribute
        # hop closer: the engine probes it on every miss.  PageTable
        # mutates the dict in place, so the alias stays live.
        self.page_state = self.page_table.state

        # R-NUMA per-page refetch counters (the RAD's reactive counters).
        self.refetch_counters: Dict[int, int] = {}
        # Blocks this node lost to inter-node coherence invalidations;
        # used to classify the next miss as a coherence miss.
        self.coherence_lost: Set[int] = set()

        self.stats = NodeStats()

    @property
    def cpu_count(self) -> int:
        return len(self.l1s)
