"""Extension experiment: cluster-size sensitivity.

Not a figure in the paper — its conclusion explicitly flags that "the
relative performance of a reactive system may vary with both
application (e.g., working set size) and system (e.g., cache sizes)
characteristics."  This experiment varies the *system* along the axis
the paper holds fixed: the number of SMP nodes (4, 8, 16), keeping the
paper's per-node caches.

More nodes means each node homes a smaller share of the data: the
remote working set per node shrinks (favouring S-COMA's fixed-size page
cache) while the number of communication partners grows (favouring
CC-NUMA's cheap misses).  R-NUMA's stability claim is that it tracks
the winner at every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.common.params import MachineParams
from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
from repro.experiments.executor import Executor
from repro.experiments.reporting import render_table
from repro.experiments.runner import Grid, Job, normalized, run_grid

DEFAULT_SCALING_APPS = ("em3d", "moldyn", "barnes")
NODE_COUNTS = (4, 8, 16)
PROTOCOLS = ("CC-NUMA", "S-COMA", "R-NUMA")


@dataclass
class ScalingResult:
    """normalized[(app, nodes)][protocol] = exec time vs ideal at that size."""

    normalized: Dict[Tuple[str, int], Dict[str, float]] = field(default_factory=dict)
    node_counts: Sequence[int] = NODE_COUNTS

    def rnuma_vs_best(self, app: str, nodes: int) -> float:
        row = self.normalized[(app, nodes)]
        return row["R-NUMA"] / min(row["CC-NUMA"], row["S-COMA"])

    def stability_bound(self) -> float:
        """R-NUMA's worst slowdown vs the best protocol over all sizes."""
        return max(
            self.rnuma_vs_best(app, nodes) for app, nodes in self.normalized
        )


def cluster_row(app: str, nodes: int, scale: float, **overrides) -> Dict[str, Job]:
    """One grid row on ``nodes`` nodes x 4 CPUs: the ideal machine (the
    baseline, left at the default topology and directory), then CC-NUMA,
    S-COMA and R-NUMA with ``overrides`` applied."""
    machine = MachineParams(nodes=nodes, cpus_per_node=4)
    systems = {
        "CC-NUMA": cc_config(),
        "S-COMA": scoma_config(),
        "R-NUMA": rnuma_config(),
    }
    row = {"ideal": Job(app, replace(ideal(), machine=machine), scale)}
    for name, cfg in systems.items():
        row[name] = Job(app, replace(cfg, machine=machine, **overrides), scale)
    return row


def scaling_grid(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    node_counts: Sequence[int] = NODE_COUNTS,
) -> Grid:
    """Rows ``(app, nodes)``: the base systems at each cluster size."""
    return {
        (app, nodes): cluster_row(app, nodes, scale)
        for nodes in node_counts
        for app in apps or DEFAULT_SCALING_APPS
    }


def compute_scaling(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    node_counts: Sequence[int] = NODE_COUNTS,
    executor: Optional[Executor] = None,
) -> ScalingResult:
    rows = run_grid(scaling_grid(scale, apps, node_counts), executor)
    return ScalingResult(
        normalized={point: normalized(row) for point, row in rows.items()},
        node_counts=tuple(node_counts),
    )


def format_scaling(result: ScalingResult) -> str:
    headers = ["app", "nodes"] + list(PROTOCOLS) + ["R vs best"]
    rows = []
    for (app, nodes), row in sorted(result.normalized.items()):
        rows.append(
            [app, nodes]
            + [row[p] for p in PROTOCOLS]
            + [result.rnuma_vs_best(app, nodes)]
        )
    return render_table(
        headers,
        rows,
        title=(
            "Extension: cluster-size sensitivity (4/8/16 nodes x 4 CPUs, "
            "normalized per-size to ideal CC-NUMA)"
        ),
    )
