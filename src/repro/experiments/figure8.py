"""Figure 8: performance sensitivity of R-NUMA to the relocation
threshold.

R-NUMA (128-B block cache, 320-KB page cache) at thresholds 16, 64, 256,
1024, normalized to the T=64 run.  The paper finds at most ~27% variation
for most applications, with reuse-heavy apps (cholesky, fmm, lu, ocean)
favouring the low threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.experiments.config import EXPERIMENT_APPS, FIG8_THRESHOLDS, rnuma_config
from repro.experiments.executor import Executor
from repro.experiments.runner import Grid, app_grid, normalized, run_grid
from repro.experiments.reporting import render_table

BASE_THRESHOLD = 64


@dataclass
class Figure8Result:
    #: normalized[app][threshold] = exec time relative to T=64
    normalized: Dict[str, Dict[int, float]] = field(default_factory=dict)
    thresholds: Sequence[int] = FIG8_THRESHOLDS

    def variation(self, app: str) -> float:
        """Spread (max/min - 1) across thresholds for one app."""
        values = list(self.normalized[app].values())
        return max(values) / min(values) - 1.0

    def best_threshold(self, app: str) -> int:
        row = self.normalized[app]
        return min(row, key=row.get)


def figure8_grid(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    thresholds: Sequence[int] = FIG8_THRESHOLDS,
) -> Grid:
    """Figure 8's simulations: R-NUMA at the T=64 baseline (column
    ``"base"``), then at each threshold."""
    systems = {"base": rnuma_config(threshold=BASE_THRESHOLD)}
    for t in thresholds:
        systems[t] = rnuma_config(threshold=t)
    return app_grid(systems, scale, apps or EXPERIMENT_APPS)


def compute_figure8(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    thresholds: Sequence[int] = FIG8_THRESHOLDS,
    executor: Optional[Executor] = None,
) -> Figure8Result:
    rows = run_grid(figure8_grid(scale, apps, thresholds), executor)
    return Figure8Result(
        normalized={app: normalized(row, base="base") for app, row in rows.items()},
        thresholds=tuple(thresholds),
    )


def format_figure8(result: Figure8Result) -> str:
    headers = ["app"] + [f"T={t}" for t in result.thresholds] + ["spread", "best T"]
    rows = []
    for app, row in result.normalized.items():
        rows.append(
            [app]
            + [row[t] for t in result.thresholds]
            + [f"{result.variation(app) * 100:.0f}%", result.best_threshold(app)]
        )
    return render_table(
        headers,
        rows,
        title=(
            "Figure 8: R-NUMA threshold sensitivity (normalized to T=64; "
            "b=128, p=320K)"
        ),
    )
