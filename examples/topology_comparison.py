#!/usr/bin/env python
"""Protocol behaviour across interconnect topologies and mesh sizes.

The paper's fabric is an idealized constant-latency point-to-point
network; this example reruns the protocol comparison on ring / mesh /
torus / fat-tree fabrics at several cluster sizes, where remote
latency grows with hop count and links themselves congest.  The
printed table normalizes every system to the uniform-fabric ideal
machine of the same size, so two effects are visible at once:

- how much each *protocol* pays for a real fabric (compare a row
  against its uniform row: CC-NUMA's many cheap misses absorb hop
  latency on every one, S-COMA pays it mostly on cold/conflict pulls);
- whether R-NUMA's stability claim survives (the "R vs best" column
  should stay near 1.0 on every fabric, as it does on uniform).

Run:  python examples/topology_comparison.py [scale] [app ...]
"""

import sys

from repro.experiments import (
    compute_topology_scaling,
    format_topology_scaling,
)
from repro.interconnect.topology import topology_names


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    apps = sys.argv[2:] or ["em3d", "moldyn"]
    topologies = topology_names()
    sizes = (4, 8, 16)

    print(
        f"simulating {', '.join(apps)} at scale {scale} across "
        f"{len(topologies)} topologies x {len(sizes)} sizes ...\n"
    )
    result = compute_topology_scaling(
        scale=scale,
        apps=apps,
        topologies=topologies,
        node_counts=sizes,
    )
    print(format_topology_scaling(result))

    worst = result.stability_bound()
    print(
        f"\nR-NUMA vs per-point best protocol, worst case over the whole "
        f"sweep: {worst:.2f}x"
    )
    print(
        "Reading the table: the 'hops' column is the fabric's mean "
        "route length; a ring's hop count grows linearly with nodes "
        "(its 16-node rows are the most distorted), the torus and "
        "fat tree stay flat.  Every protocol slows on a real fabric, "
        "but the *ordering* of CC-NUMA vs S-COMA per app can shift — "
        "which is exactly the situation R-NUMA's reactive policy is "
        "built to absorb."
    )


if __name__ == "__main__":
    main()
