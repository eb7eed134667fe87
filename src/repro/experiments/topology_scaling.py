"""Extension experiment: interconnect-topology sensitivity.

Not a figure in the paper — Falsafi & Wood hold the fabric fixed at an
idealized 100-cycle point-to-point network with no internal contention.
This experiment varies that assumption along two axes the paper never
explores: the topology (uniform / ring / mesh / torus / fattree, see
:mod:`repro.interconnect.topology`) and the node count, with per-hop
link latency and busy-until link occupancy charged along each message's
precomputed route.

The question it answers: does R-NUMA's stability claim — track the
better of CC-NUMA and S-COMA everywhere — survive a fabric where
remote misses are no longer all equally expensive?  Hop-dependent
latency penalizes CC-NUMA's many cheap misses more than S-COMA's few
expensive page operations, so the protocol gap *shifts* with topology;
normalization against the uniform-fabric ideal machine at the same
node count makes the shift visible in the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.common.params import DirectoryParams
from repro.experiments.executor import Executor
from repro.experiments.extension_scaling import cluster_row
from repro.experiments.reporting import render_table
from repro.experiments.runner import Grid, normalized, run_grid
from repro.interconnect.routing import routing_table_for
from repro.interconnect.topology import topology_names

DEFAULT_TOPOLOGY_APPS = ("em3d", "moldyn")
TOPOLOGY_NODE_COUNTS = (4, 8, 16)
PROTOCOLS = ("CC-NUMA", "S-COMA", "R-NUMA")


@dataclass
class TopologyScalingResult:
    """normalized[(app, topology, nodes)][protocol] = exec time vs the
    uniform-fabric ideal machine at that node count."""

    normalized: Dict[Tuple[str, str, int], Dict[str, float]] = field(
        default_factory=dict
    )
    topologies: Sequence[str] = ()
    node_counts: Sequence[int] = TOPOLOGY_NODE_COUNTS

    def mean_hops(self, topology: str, nodes: int) -> float:
        return routing_table_for(topology, nodes).mean_hops()

    def rnuma_vs_best(self, app: str, topology: str, nodes: int) -> float:
        row = self.normalized[(app, topology, nodes)]
        return row["R-NUMA"] / min(row["CC-NUMA"], row["S-COMA"])

    def slowdown_vs_uniform(
        self, app: str, topology: str, nodes: int, protocol: str
    ) -> float:
        """How much the fabric itself costs ``protocol`` on this app:
        normalized time under ``topology`` over normalized time under
        ``uniform`` (both against the same uniform ideal baseline)."""
        return (
            self.normalized[(app, topology, nodes)][protocol]
            / self.normalized[(app, "uniform", nodes)][protocol]
        )

    def stability_bound(self) -> float:
        """R-NUMA's worst slowdown vs the best protocol over every
        (app, topology, size) point of the sweep."""
        return max(self.rnuma_vs_best(*key) for key in self.normalized)


def topology_scaling_grid(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    topologies: Optional[Sequence[str]] = None,
    node_counts: Sequence[int] = TOPOLOGY_NODE_COUNTS,
) -> Grid:
    """Rows ``(app, topology, nodes)``: the base systems on each fabric,
    against the uniform-fabric ideal machine at that node count.  That
    baseline isolates what the topology adds, and is the cluster-size
    extension's, so the job dedups across both sweeps."""
    return {
        (app, topology, nodes): cluster_row(app, nodes, scale, topology=topology)
        for nodes in node_counts
        for topology in topologies or topology_names()
        for app in apps or DEFAULT_TOPOLOGY_APPS
    }


def compute_topology_scaling(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    topologies: Optional[Sequence[str]] = None,
    node_counts: Sequence[int] = TOPOLOGY_NODE_COUNTS,
    executor: Optional[Executor] = None,
) -> TopologyScalingResult:
    grid = topology_scaling_grid(scale, apps, topologies, node_counts)
    rows = run_grid(grid, executor)
    return TopologyScalingResult(
        normalized={point: normalized(row) for point, row in rows.items()},
        topologies=tuple(topologies or topology_names()),
        node_counts=tuple(node_counts),
    )


def format_topology_scaling(result: TopologyScalingResult) -> str:
    headers = (
        ["app", "topology", "nodes", "hops"]
        + list(PROTOCOLS)
        + ["R vs best"]
    )
    # Sort by (app, nodes) with topologies in registry order, so each
    # app/size group reads as one fabric comparison.
    order = {name: i for i, name in enumerate(result.topologies)}
    rows = []
    for (app, topology, nodes) in sorted(
        result.normalized, key=lambda k: (k[0], k[2], order.get(k[1], 99))
    ):
        row = result.normalized[(app, topology, nodes)]
        rows.append(
            [app, topology, nodes, result.mean_hops(topology, nodes)]
            + [row[p] for p in PROTOCOLS]
            + [result.rnuma_vs_best(app, topology, nodes)]
        )
    return render_table(
        headers,
        rows,
        title=(
            "Extension: topology sensitivity (per-hop link latency + link "
            "contention; normalized per-size to the uniform-fabric ideal)"
        ),
    )


# -- directory-representation sweep ---------------------------------------
#
# Second axis the paper holds fixed: the directory's sharer-set
# representation.  A full bitmask per block is exact but its width
# grows with the machine; the classic scalable alternatives —
# limited-pointer (Dir_i B) and coarse-vector (Dir_i CV_r) — trade
# precision for constant width and pay for it in *extra invalidations*
# whenever the sharer set overflows what they can represent.  This
# sweep crosses representation x topology x protocol x size and
# reports both execution time and the invalidation-traffic overhead
# each inexact representation adds over the exact full map.

DIRECTORY_NODE_COUNTS = (8, 16)
DIRECTORY_TOPOLOGIES = ("uniform", "mesh")

#: label -> knobs; ``fullmap`` first so every overhead has its baseline.
DIRECTORY_REPRESENTATIONS: Dict[str, DirectoryParams] = {
    "fullmap": DirectoryParams(),
    "limited-bcast": DirectoryParams(
        representation="limited", pointers=4, overflow="broadcast"
    ),
    "limited-evict": DirectoryParams(
        representation="limited", pointers=4, overflow="evict"
    ),
    "coarse": DirectoryParams(representation="coarse", region_size=4),
}


@dataclass
class DirectoryScalingResult:
    """points[(app, topology, nodes, rep)][protocol] =
    (normalized exec time, total invalidations sent)."""

    points: Dict[Tuple[str, str, int, str], Dict[str, Tuple[float, int]]] = field(
        default_factory=dict
    )
    representations: Sequence[str] = ()
    node_counts: Sequence[int] = DIRECTORY_NODE_COUNTS

    def inval_overhead(
        self, app: str, topology: str, nodes: int, rep: str, protocol: str
    ) -> float:
        """Invalidation traffic vs the exact full map (1.0 = no extra;
        a full map that sent none while the rep sent some is inf)."""
        sent = self.points[(app, topology, nodes, rep)][protocol][1]
        base = self.points[(app, topology, nodes, "fullmap")][protocol][1]
        if base == 0:
            return 1.0 if sent == 0 else float("inf")
        return sent / base


def directory_scaling_grid(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    topologies: Sequence[str] = DIRECTORY_TOPOLOGIES,
    node_counts: Sequence[int] = DIRECTORY_NODE_COUNTS,
    representations: Optional[Dict[str, DirectoryParams]] = None,
) -> Grid:
    """Rows ``(app, topology, nodes, representation)``.  The default
    ``DirectoryParams()`` makes the fullmap rows the topology sweep's
    jobs, so they dedup in the result store."""
    reps = representations or DIRECTORY_REPRESENTATIONS
    return {
        (app, topology, nodes, name): cluster_row(
            app, nodes, scale, topology=topology, directory=rep
        )
        for nodes in node_counts
        for topology in topologies
        for name, rep in reps.items()
        for app in apps or DEFAULT_TOPOLOGY_APPS
    }


def compute_directory_scaling(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    topologies: Sequence[str] = DIRECTORY_TOPOLOGIES,
    node_counts: Sequence[int] = DIRECTORY_NODE_COUNTS,
    representations: Optional[Dict[str, DirectoryParams]] = None,
    executor: Optional[Executor] = None,
) -> DirectoryScalingResult:
    grid = directory_scaling_grid(scale, apps, topologies, node_counts, representations)
    out = DirectoryScalingResult(
        representations=tuple(representations or DIRECTORY_REPRESENTATIONS),
        node_counts=tuple(node_counts),
    )
    for point, row in run_grid(grid, executor).items():
        out.points[point] = {
            protocol: (norm, row[protocol].total("invalidations_sent"))
            for protocol, norm in normalized(row).items()
        }
    return out


def format_directory_scaling(result: DirectoryScalingResult) -> str:
    headers = ["app", "topology", "nodes", "directory"]
    for protocol in PROTOCOLS:
        headers += [protocol, "inv x"]
    order = {name: i for i, name in enumerate(result.representations)}
    rows = []
    for (app, topology, nodes, rep) in sorted(
        result.points, key=lambda k: (k[0], k[2], k[1], order.get(k[3], 99))
    ):
        row = result.points[(app, topology, nodes, rep)]
        cells = [app, topology, nodes, rep]
        for protocol in PROTOCOLS:
            cells.append(row[protocol][0])
            cells.append(result.inval_overhead(app, topology, nodes, rep, protocol))
        rows.append(cells)
    return render_table(
        headers,
        rows,
        title=(
            "Extension: directory representations (exec time normalized to "
            "the uniform ideal; 'inv x' = invalidations vs exact full map)"
        ),
    )
