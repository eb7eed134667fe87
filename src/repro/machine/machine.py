"""The whole distributed shared-memory machine.

A :class:`Machine` owns the nodes, the inter-node directory and the
network.  It is pure state; the simulation engine drives it and keeps
the page->home placement map.
"""

from __future__ import annotations

from typing import Dict, List

from repro.coherence.directory import make_directory
from repro.common.params import SystemConfig
from repro.common.stats import StatsRegistry
from repro.interconnect.network import Network
from repro.machine.node import Node


class Machine:
    """Nodes + directory + network for one simulation run."""

    __slots__ = (
        "config",
        "nodes",
        "directory",
        "network",
        "stats",
        "page_requesters",
        "page_writers",
        "refetch_counts",
    )

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.nodes: List[Node] = [
            Node(n, config) for n in range(config.machine.nodes)
        ]
        self.directory = make_directory(config.directory, config.machine.nodes)
        self.network = Network(
            config.machine.nodes, config.costs, topology=config.topology
        )
        self.stats = StatsRegistry(nodes=[node.stats for node in self.nodes])

        # Page-level characterization (Figure 5 / Table 4):
        # which nodes requested blocks of each page and which wrote it,
        # as node *bitmasks* (bit n set = node n), plus cumulative
        # refetches per (node, page).
        self.page_requesters: Dict[int, int] = {}
        self.page_writers: Dict[int, int] = {}
        self.refetch_counts: Dict[int, Dict[int, int]] = {}

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def record_refetch(self, node_id: int, page: int) -> None:
        per_node = self.refetch_counts.setdefault(node_id, {})
        per_node[page] = per_node.get(page, 0) + 1

    def read_write_shared_pages(self) -> set:
        """Pages with sharing traffic in both directions (Table 4 col 1).

        A page counts as read-write shared when blocks of it were
        requested by at least two distinct nodes and at least one request
        was for write ownership.
        """
        rw = set()
        writers = self.page_writers
        for page, mask in self.page_requesters.items():
            # At least two bits set, and somebody wrote it.
            if mask & (mask - 1) and writers.get(page):
                rw.add(page)
        return rw
