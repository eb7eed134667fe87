#!/usr/bin/env python
"""Quickstart: simulate one workload under all four protocols.

Builds the scaled `barnes` workload (Barnes-Hut N-body — the paper's
best case for R-NUMA), runs it on CC-NUMA, S-COMA, R-NUMA, and the
ideal machine, and prints normalized execution times plus the headline
event counts.

Run:  python examples/quickstart.py [app] [scale]
"""

import sys

from repro import (
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    build_program,
    ideal_config,
    simulate,
)


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "barnes"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    print(f"building {app!r} at scale {scale} ...")
    program = build_program(app, scale=scale)
    print(f"  {program.scaled_input}; {program.total_accesses} accesses "
          f"on {program.cpu_count} CPUs\n")

    configs = [
        ("ideal CC-NUMA", ideal_config()),
        ("CC-NUMA  b=32K", base_ccnuma_config()),
        ("S-COMA   p=320K", base_scoma_config()),
        ("R-NUMA   b=128 p=320K T=64", base_rnuma_config()),
    ]

    baseline = None
    print(f"{'system':<28} {'cycles':>12} {'norm':>6} "
          f"{'remote':>8} {'refetch':>8} {'faults':>7} {'reloc':>6}")
    for name, config in configs:
        result = simulate(config, program)
        if baseline is None:
            baseline = result
        print(
            f"{name:<28} {result.exec_cycles:>12,} "
            f"{result.normalized_to(baseline):>6.2f} "
            f"{result.total('remote_fetches'):>8,} "
            f"{result.total('refetches'):>8,} "
            f"{result.total('page_faults'):>7,} "
            f"{result.total('relocations'):>6,}"
        )


if __name__ == "__main__":
    main()
