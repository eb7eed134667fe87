#!/usr/bin/env python
"""Building a custom workload against the public API.

Writes a small producer-consumer pipeline by hand with
:class:`TraceBuilder` and :class:`Layout`: stage CPUs produce buffers
that the next node's CPUs consume each iteration, plus one shared
read-mostly configuration page that every CPU polls — the classic mix
of communication pages (best left CC-NUMA) and a reuse page (worth
relocating).  Then runs it under all four protocols.

Run:  python examples/custom_workload.py
"""

from repro import (
    AddressSpace,
    MachineParams,
    TraceBuilder,
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
    simulate,
)
from repro.workloads.layout import Layout


def build_pipeline(iterations: int = 40):
    machine = MachineParams()          # 8 nodes x 4 CPUs
    space = AddressSpace()
    layout = Layout(space)
    tb = TraceBuilder(machine)

    # One 16-KB buffer per node, and one hot config page.
    buffers = [
        layout.region(f"buffer{n}", 4 * space.page_size)
        for n in range(machine.nodes)
    ]
    config_page = layout.region("config", space.page_size)

    # First touch: node n's CPU 0 owns buffer n; node 0 owns the config.
    for n, buf in enumerate(buffers):
        tb.first_touch(n * machine.cpus_per_node,
                       (buf.page_base_addr(i) for i in range(buf.num_pages)))
    tb.first_touch(0, [config_page.page_base_addr(0)])
    tb.barrier()

    for _ in range(iterations):
        for cpu in range(machine.total_cpus):
            node = machine.node_of_cpu(cpu)
            mine = buffers[node]
            upstream = buffers[(node - 1) % machine.nodes]
            # Poll the shared config (hot reuse page for everyone
            # except node 0).
            for blk in range(0, 8):
                tb.read(cpu, config_page.block(blk), think=2)
            # Consume a slice of the upstream buffer (communication).
            slice_blocks = mine.num_blocks // machine.cpus_per_node
            lo = (cpu % machine.cpus_per_node) * slice_blocks
            for blk in range(lo, lo + slice_blocks):
                tb.read(cpu, upstream.block(blk), think=3)
            # Produce into the local buffer.
            for blk in range(lo, lo + slice_blocks):
                tb.write(cpu, mine.block(blk), think=3)
        tb.barrier()

    return tb.build(
        "pipeline",
        description="ring pipeline with a shared hot config page",
        scaled_input=f"{machine.nodes}-stage ring, {iterations} iterations",
    )


def main() -> None:
    program = build_pipeline()
    print(f"custom workload: {program.description}")
    print(f"  {program.total_accesses} accesses, "
          f"{program.barrier_count} barriers\n")

    baseline = None
    for name, config in [
        ("ideal", ideal_config()),
        ("ccnuma", base_ccnuma_config()),
        ("scoma", base_scoma_config()),
        ("rnuma", base_rnuma_config()),
    ]:
        result = simulate(config, program)
        if baseline is None:
            baseline = result
        print(f"{name:<8} {result.exec_cycles:>12,} cycles "
              f"({result.normalized_to(baseline):.2f}x ideal)  "
              f"relocations={result.total('relocations')}")
    print("\nR-NUMA should relocate the polled config page on the seven "
          "non-home nodes and leave the streaming buffers CC-NUMA.")


if __name__ == "__main__":
    main()
