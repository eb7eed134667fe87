"""Figure 6: base-system comparison of CC-NUMA, S-COMA, and R-NUMA.

Execution times on a CC-NUMA with a 32-KB block cache, an S-COMA with a
320-KB page cache, and an R-NUMA with a 128-byte block cache, 320-KB
page cache and threshold 64 — all normalized to a CC-NUMA with an
infinite block cache.

The paper's headline claims, which :func:`headline_claims` checks:
R-NUMA is never the worst protocol; it is at most ~57% worse than the
best of the other two; CC-NUMA and S-COMA can each be multiple factors
worse than the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.experiments.config import (
    EXPERIMENT_APPS,
    cc_config,
    ideal,
    rnuma_config,
    scoma_config,
)
from repro.experiments.executor import Executor
from repro.experiments.runner import Grid, app_grid, normalized, run_grid
from repro.experiments.reporting import render_bar_chart, render_table

PROTOCOLS = ("CC-NUMA", "S-COMA", "R-NUMA")


@dataclass
class Figure6Result:
    """Normalized execution time per app per protocol."""

    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def worst_case_vs_best(self, app: str) -> float:
        """R-NUMA's slowdown relative to the best of CC-NUMA/S-COMA."""
        row = self.normalized[app]
        best_other = min(row["CC-NUMA"], row["S-COMA"])
        return row["R-NUMA"] / best_other

    def headline_claims(self) -> Dict[str, float]:
        """The figures the paper quotes in its abstract/Section 5.2."""
        worst_r = max(self.worst_case_vs_best(a) for a in self.normalized)
        best_r = min(self.worst_case_vs_best(a) for a in self.normalized)
        cc_vs_s = max(
            row["CC-NUMA"] / row["S-COMA"] for row in self.normalized.values()
        )
        s_vs_cc = max(
            row["S-COMA"] / row["CC-NUMA"] for row in self.normalized.values()
        )
        r_never_worst = all(
            row["R-NUMA"] <= max(row["CC-NUMA"], row["S-COMA"]) + 1e-9
            for row in self.normalized.values()
        )
        return {
            "rnuma_worst_vs_best": worst_r,
            "rnuma_best_vs_best": best_r,
            "ccnuma_worst_vs_scoma": cc_vs_s,
            "scoma_worst_vs_ccnuma": s_vs_cc,
            "rnuma_never_worst": float(r_never_worst),
        }


def figure6_grid(scale: float = 1.0, apps: Optional[Sequence[str]] = None) -> Grid:
    """Figure 6's simulations: the base systems and the ideal baseline."""
    systems = {
        "ideal": ideal(),
        "CC-NUMA": cc_config(),
        "S-COMA": scoma_config(),
        "R-NUMA": rnuma_config(),
    }
    return app_grid(systems, scale, apps or EXPERIMENT_APPS)


def compute_figure6(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> Figure6Result:
    rows = run_grid(figure6_grid(scale, apps), executor)
    return Figure6Result(normalized={app: normalized(row) for app, row in rows.items()})


def format_figure6(result: Figure6Result, chart: bool = True) -> str:
    apps = list(result.normalized)
    headers = ["app"] + list(PROTOCOLS) + ["R vs best"]
    rows = [
        [app]
        + [result.normalized[app][p] for p in PROTOCOLS]
        + [result.worst_case_vs_best(app)]
        for app in apps
    ]
    text = render_table(
        headers,
        rows,
        title=(
            "Figure 6: execution time normalized to CC-NUMA with an "
            "infinite block cache\n(CC b=32K | S p=320K | R b=128,p=320K,T=64)"
        ),
    )
    if chart:
        series = [[result.normalized[a][p] for a in apps] for p in PROTOCOLS]
        text += "\n\n" + render_bar_chart(apps, series, PROTOCOLS)
    claims = result.headline_claims()
    text += (
        "\n\nheadline: R-NUMA at most "
        f"{(claims['rnuma_worst_vs_best'] - 1) * 100:.0f}% worse than the best "
        f"of CC/S; CC up to {(claims['ccnuma_worst_vs_scoma'] - 1) * 100:.0f}% "
        f"worse than S; S up to "
        f"{(claims['scoma_worst_vs_ccnuma'] - 1) * 100:.0f}% worse than CC; "
        f"R never worst: {bool(claims['rnuma_never_worst'])}"
    )
    return text
