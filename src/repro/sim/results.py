"""Simulation result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.params import SystemConfig, config_from_dict, config_to_dict
from repro.common.stats import NodeStats, StatsRegistry


@dataclass
class SimulationResult:
    """Everything an experiment needs from one run.

    ``exec_cycles`` is the paper's execution-time metric: the cycle at
    which the last processor finishes its trace.
    """

    config: SystemConfig
    exec_cycles: int
    cpu_finish_times: List[int]
    stats: StatsRegistry
    refetch_counts: Dict[int, Dict[int, int]] = field(default_factory=dict)
    rw_shared_pages: frozenset = frozenset()
    remote_pages_touched: int = 0
    #: The directory's overflow count (the witness a limited-pointer run
    #: gives result reuse); ``None`` when unknown.  Not part of the
    #: result: it stays out of equality and of :meth:`to_json_dict`, so
    #: a result loaded from the store has ``None``.
    directory_overflows: Optional[int] = field(default=None, compare=False)

    def total(self, counter: str) -> int:
        """Machine-wide total of one stats counter."""
        return self.stats.total(counter)

    def refetches_by_page(self) -> Dict[int, int]:
        """Refetches per page summed over nodes (Figure 5 input)."""
        totals: Dict[int, int] = {}
        for per_node in self.refetch_counts.values():
            for page, count in per_node.items():
                totals[page] = totals.get(page, 0) + count
        return totals

    def normalized_to(self, baseline: "SimulationResult") -> float:
        """Execution time relative to a baseline run (ideal CC-NUMA in
        the paper's figures)."""
        if baseline.exec_cycles <= 0:
            raise ValueError("baseline execution time must be positive")
        return self.exec_cycles / baseline.exec_cycles

    def summary(self) -> Dict[str, int]:
        """Headline counters for reports and debugging."""
        return {
            "exec_cycles": self.exec_cycles,
            "remote_fetches": self.total("remote_fetches"),
            "refetches": self.total("refetches"),
            "coherence_misses": self.total("coherence_misses"),
            "page_faults": self.total("page_faults"),
            "page_replacements": self.total("page_replacements"),
            "relocations": self.total("relocations"),
            "block_cache_hits": self.total("block_cache_hits"),
            "page_cache_hits": self.total("page_cache_hits"),
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-safe plain-dict form of this result.

        Every counter round-trips exactly (all payload values are ints),
        so a result loaded back with :meth:`from_json_dict` reproduces
        byte-identical figures and tables.  Dict keys become strings in
        JSON; ``from_json_dict`` restores them to ints.
        """
        return {
            "config": config_to_dict(self.config),
            "exec_cycles": self.exec_cycles,
            "cpu_finish_times": list(self.cpu_finish_times),
            "stats": {
                "nodes": [n.as_dict() for n in self.stats.nodes],
                "barriers_crossed": self.stats.barriers_crossed,
            },
            "refetch_counts": {
                str(node): {str(page): count for page, count in per_node.items()}
                for node, per_node in self.refetch_counts.items()
            },
            "rw_shared_pages": sorted(self.rw_shared_pages),
            "remote_pages_touched": self.remote_pages_touched,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result serialized with :meth:`to_json_dict`."""
        stats = StatsRegistry(
            nodes=[NodeStats(**n) for n in data["stats"]["nodes"]],
            barriers_crossed=data["stats"]["barriers_crossed"],
        )
        return cls(
            config=config_from_dict(data["config"]),
            exec_cycles=data["exec_cycles"],
            cpu_finish_times=list(data["cpu_finish_times"]),
            stats=stats,
            refetch_counts={
                int(node): {int(page): count for page, count in per_node.items()}
                for node, per_node in data["refetch_counts"].items()
            },
            rw_shared_pages=frozenset(data["rw_shared_pages"]),
            remote_pages_touched=data["remote_pages_touched"],
        )
