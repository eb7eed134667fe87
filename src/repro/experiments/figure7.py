"""Figure 7: performance sensitivity of CC-NUMA and R-NUMA to cache size.

Five systems, all normalized to the infinite-block-cache CC-NUMA:

- CC-NUMA b=1K        (small block cache)
- CC-NUMA b=32K       (paper base)
- R-NUMA  b=128 p=320K (paper base)
- R-NUMA  b=32K p=320K (large block cache)
- R-NUMA  b=128 p=40M  (page cache big enough for everything)

The paper's categories: apps whose reuse set fits a tiny cache (em3d,
fft) are insensitive; apps with a compact reuse set (barnes, moldyn,
raytrace) make R-NUMA fast even at b=128; apps whose reuse set overflows
the page cache (fmm, radix, ocean) recover with either a bigger block
cache or the 40-MB page cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.experiments.config import (
    EXPERIMENT_APPS,
    FIG7_CC_LARGE,
    FIG7_CC_SMALL,
    FIG7_R_BASE_PAGE,
    FIG7_R_HUGE_PAGE,
    FIG7_R_LARGE_BLOCK,
    FIG7_R_SMALL_BLOCK,
    cc_config,
    ideal,
    rnuma_config,
)
from repro.experiments.executor import Executor
from repro.experiments.runner import Grid, app_grid, normalized, run_grid
from repro.experiments.reporting import render_table

SYSTEMS = (
    "CC b=1K",
    "CC b=32K",
    "R b=128,p=320K",
    "R b=32K,p=320K",
    "R b=128,p=40M",
)


@dataclass
class Figure7Result:
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def cc_sensitivity(self, app: str) -> float:
        """Slowdown of CC-NUMA when shrinking the block cache 32K -> 1K."""
        row = self.normalized[app]
        return row["CC b=1K"] / row["CC b=32K"]

    def rnuma_page_cache_gain(self, app: str) -> float:
        """Speedup of base R-NUMA from a 40-MB page cache."""
        row = self.normalized[app]
        return row["R b=128,p=320K"] / row["R b=128,p=40M"]


def figure7_grid(scale: float = 1.0, apps: Optional[Sequence[str]] = None) -> Grid:
    """Figure 7's simulations: the five cache-size points and the ideal
    baseline."""
    systems = {
        "ideal": ideal(),
        "CC b=1K": cc_config(FIG7_CC_SMALL),
        "CC b=32K": cc_config(FIG7_CC_LARGE),
        "R b=128,p=320K": rnuma_config(FIG7_R_SMALL_BLOCK, FIG7_R_BASE_PAGE),
        "R b=32K,p=320K": rnuma_config(FIG7_R_LARGE_BLOCK, FIG7_R_BASE_PAGE),
        "R b=128,p=40M": rnuma_config(FIG7_R_SMALL_BLOCK, FIG7_R_HUGE_PAGE),
    }
    return app_grid(systems, scale, apps or EXPERIMENT_APPS)


def compute_figure7(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> Figure7Result:
    rows = run_grid(figure7_grid(scale, apps), executor)
    return Figure7Result(normalized={app: normalized(row) for app, row in rows.items()})


def format_figure7(result: Figure7Result) -> str:
    headers = ["app"] + list(SYSTEMS)
    rows = [
        [app] + [result.normalized[app][s] for s in SYSTEMS]
        for app in result.normalized
    ]
    return render_table(
        headers,
        rows,
        title=(
            "Figure 7: cache-size sensitivity, normalized to infinite-"
            "block-cache CC-NUMA"
        ),
    )
