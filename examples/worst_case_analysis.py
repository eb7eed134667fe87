#!/usr/bin/env python
"""Empirical check of the Section 3.2 competitive bound.

Drives the EQ 1 adversarial stream — every remote page is refetched
exactly to the relocation threshold and then abandoned, so R-NUMA pays
CC-NUMA's refetches *plus* a useless relocation and allocation — and
compares the measured overhead ratio against the model's closed form.

Run:  python examples/worst_case_analysis.py
"""

from repro.common.addressing import AddressSpace
from repro.common.params import CacheParams, MachineParams, SystemConfig
from repro.model.competitive import CompetitiveModel, ModelParameters
from repro.sim.engine import simulate
from repro.workloads import synthetic

SPACE = AddressSpace()
MACHINE = MachineParams(nodes=2, cpus_per_node=1)


def config(protocol: str, threshold: int) -> SystemConfig:
    return SystemConfig(
        protocol=protocol,
        machine=MACHINE,
        caches=CacheParams(block_cache_size=128, page_cache_size=320 * 1024),
        space=SPACE,
        relocation_threshold=threshold,
    )


def main() -> None:
    print(f"{'T':>6} {'model EQ1':>10} {'measured':>10} {'relocations':>12}")
    for threshold in (8, 16, 32, 64):
        program = synthetic.worst_case_for_rnuma(
            MACHINE, SPACE, threshold=threshold, pages=24
        )
        ideal = simulate(config("ideal", threshold), program)
        cc = simulate(config("ccnuma", threshold), program)
        rn = simulate(config("rnuma", threshold), program)

        o_cc = cc.exec_cycles - ideal.exec_cycles
        o_rn = rn.exec_cycles - ideal.exec_cycles
        measured = o_rn / o_cc if o_cc else float("nan")

        params = ModelParameters.from_costs(cc.config.costs, blocks_flushed=2)
        model_ratio = CompetitiveModel(params).ratio_vs_ccnuma(threshold)
        print(f"{threshold:>6} {model_ratio:>10.2f} {measured:>10.2f} "
              f"{rn.total('relocations'):>12}")

    print("\nThe measured ratio tracks EQ 1: worst at small thresholds "
          "(the fixed relocation+allocation cost is amortized over few "
          "refetches) and approaching 1 as T grows.  The paper picks "
          "T* = C_allocate/C_refetch to balance this against S-COMA's "
          "worst case.")


if __name__ == "__main__":
    main()
