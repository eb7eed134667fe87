"""Figure 9: sensitivity to page-fault and TLB-invalidation overheads.

Compares S-COMA and R-NUMA under the base OS costs (5 us page faults,
0.5 us hardware TLB shootdowns) and the SOFT costs (10 us faults, 5 us
software shootdowns via inter-processor interrupts, ~3x higher per-page
operations), all normalized to the infinite-block-cache CC-NUMA.

The paper's result: S-COMA degrades by up to ~3x when per-page costs
triple; R-NUMA — having eliminated most replacements — degrades by at
most ~25% except lu (~40%), whose load imbalance puts replacements on
the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.common.params import (
    SOFT_COSTS,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
)
from repro.experiments.executor import Executor
from repro.experiments.runner import (
    EXPERIMENT_APPS,
    Grid,
    app_grid,
    normalized,
    run_grid,
)
from repro.experiments.reporting import render_table

SYSTEMS = ("S-COMA", "S-COMA-SOFT", "R-NUMA", "R-NUMA-SOFT")


@dataclass
class Figure9Result:
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def scoma_degradation(self, app: str) -> float:
        row = self.normalized[app]
        return row["S-COMA-SOFT"] / row["S-COMA"]

    def rnuma_degradation(self, app: str) -> float:
        row = self.normalized[app]
        return row["R-NUMA-SOFT"] / row["R-NUMA"]


def figure9_grid(scale: float = 1.0, apps: Optional[Sequence[str]] = None) -> Grid:
    """Figure 9's simulations: S-COMA and R-NUMA under base and SOFT
    costs, and the ideal baseline."""
    systems = {
        "ideal": ideal_config(),
        "S-COMA": base_scoma_config(),
        "S-COMA-SOFT": base_scoma_config(costs=SOFT_COSTS),
        "R-NUMA": base_rnuma_config(),
        "R-NUMA-SOFT": base_rnuma_config(costs=SOFT_COSTS),
    }
    return app_grid(systems, scale, apps or EXPERIMENT_APPS)


def compute_figure9(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> Figure9Result:
    rows = run_grid(figure9_grid(scale, apps), executor)
    return Figure9Result(normalized={app: normalized(row) for app, row in rows.items()})


def format_figure9(result: Figure9Result) -> str:
    headers = ["app"] + list(SYSTEMS) + ["S slow-down", "R slow-down"]
    rows = []
    for app, row in result.normalized.items():
        rows.append(
            [app]
            + [row[s] for s in SYSTEMS]
            + [
                f"{(result.scoma_degradation(app) - 1) * 100:.0f}%",
                f"{(result.rnuma_degradation(app) - 1) * 100:.0f}%",
            ]
        )
    return render_table(
        headers,
        rows,
        title=(
            "Figure 9: page-fault/TLB overhead sensitivity (normalized to "
            "infinite-block-cache CC-NUMA)"
        ),
    )
