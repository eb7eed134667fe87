#!/usr/bin/env python
"""Relocation-threshold tuning: theory vs simulation.

Section 3.2's competitive model prescribes the threshold that minimizes
*worst-case* overhead: T* = C_allocate / C_refetch, where the bound is
2 + C_relocate/C_allocate.  But the threshold that maximizes *average*
performance is workload-dependent (Section 5.4).  This example prints
both: the closed-form optimum, and a simulated sweep on one application.

Run:  python examples/threshold_tuning.py [app] [scale]
"""

import sys

from repro.common.params import BASE_COSTS, base_rnuma_config, ideal_config
from repro.experiments import Executor
from repro.model.competitive import CompetitiveModel, ModelParameters


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "moldyn"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4

    # --- theory -------------------------------------------------------
    params = ModelParameters.from_costs(BASE_COSTS, blocks_flushed=32)
    model = CompetitiveModel(params)
    print("competitive model (worst case):")
    print(f"  C_refetch={params.c_refetch:.0f}  C_allocate={params.c_allocate:.0f}"
          f"  C_relocate={params.c_relocate:.0f}")
    print(f"  optimal threshold T* = {model.optimal_threshold:.1f}")
    print(f"  worst-case bound at T* = {model.bound_at_optimum:.2f}x\n")

    # --- simulation ---------------------------------------------------
    executor = Executor()
    base = executor.run_app(app, ideal_config(), scale=scale)
    print(f"simulated sweep on {app!r} (normalized to ideal CC-NUMA):")
    print(f"  {'T':>6} {'norm time':>10} {'relocations':>12} {'replacements':>13}")
    for threshold in (8, 16, 32, 64, 128, 256, 1024):
        result = executor.run_app(app, base_rnuma_config(threshold), scale=scale)
        print(
            f"  {threshold:>6} {result.normalized_to(base):>10.3f} "
            f"{result.total('relocations'):>12,} "
            f"{result.total('page_replacements'):>13,}"
        )
    print("\nLow thresholds relocate reuse pages sooner (good for apps "
          "whose remote working set fits the page cache); high thresholds "
          "protect against relocating pages that are about to go cold.")


if __name__ == "__main__":
    main()
