"""Simulation statistics.

The simulator increments counters as it models each event; the experiment
harness reads them back to build the paper's tables and figures.  Counters
are split per node (``NodeStats``) with machine-wide aggregation on the
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(slots=True)
class NodeStats:
    """Event counters for one SMP node.

    Slotted: the engine bumps these counters on every miss, and slot
    descriptors make each increment measurably cheaper than a __dict__
    attribute store.
    """

    # L1 / intra-node
    l1_hits: int = 0
    l1_misses: int = 0
    local_fills: int = 0          # fills served by local memory / local caches
    cache_to_cache: int = 0       # intra-node cache-to-cache transfers

    # CC-NUMA path
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    block_cache_writebacks: int = 0

    # S-COMA path
    page_cache_hits: int = 0
    page_cache_misses: int = 0
    page_faults: int = 0
    page_allocations: int = 0
    page_replacements: int = 0
    blocks_flushed: int = 0
    tlb_shootdowns: int = 0

    # inter-node
    remote_fetches: int = 0
    refetches: int = 0            # capacity/conflict misses seen at the home
    coherence_misses: int = 0     # misses caused by inter-node invalidation
    invalidations_sent: int = 0   # invalidation messages the directory fanned
                                  # out on behalf of this node's requests

    # R-NUMA
    relocations: int = 0
    relocation_interrupts: int = 0

    # time
    busy_cycles: int = 0
    stall_cycles: int = 0
    barrier_wait_cycles: int = 0

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain dict (stable key order)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class StatsRegistry:
    """Per-node counters plus machine-global accumulators."""

    nodes: List[NodeStats] = field(default_factory=list)
    barriers_crossed: int = 0

    @classmethod
    def for_nodes(cls, node_count: int) -> "StatsRegistry":
        return cls(nodes=[NodeStats() for _ in range(node_count)])

    def node(self, node_id: int) -> NodeStats:
        return self.nodes[node_id]

    def total(self, counter: str) -> int:
        """Sum of one counter across all nodes."""
        return sum(getattr(n, counter) for n in self.nodes)

    def as_dict(self) -> Dict[str, int]:
        """Machine-wide totals for every counter."""
        totals: Dict[str, int] = {}
        if self.nodes:
            for name in self.nodes[0].__dataclass_fields__:
                totals[name] = self.total(name)
        totals["barriers_crossed"] = self.barriers_crossed
        return totals
