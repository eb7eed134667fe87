"""The ten applications of the paper's Table 3, as scaled mini-kernels.

Every module exposes ``build(machine, space, scale=1.0, seed=...)``
returning a :class:`repro.workloads.base.Program`.  See each module's
docstring for what the paper ran, how we scale it, and which sharing
behaviour the kernel is designed to preserve.
"""

from __future__ import annotations

from repro.common.params import MachineParams
from repro.workloads.base import TraceBuilder
from repro.workloads.layout import Region


def stripe_pages_across_nodes(
    tb: TraceBuilder, region: Region, machine: MachineParams
) -> None:
    """First-touch a region so its pages land round-robin across nodes.

    Page ``i`` is touched by CPU 0 of node ``i % nodes`` — the idiom the
    paper's applications use to distribute shared data structures.
    """
    for i in range(region.num_pages):
        cpu = (i % machine.nodes) * machine.cpus_per_node
        tb.first_touch(cpu, [region.page_base_addr(i)])
