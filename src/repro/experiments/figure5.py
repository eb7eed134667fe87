"""Figure 5: characterizing remote pages in CC-NUMA.

Cumulative distribution of block refetches as a function of the fraction
of remote pages, on a CC-NUMA with a 32-KB block cache.  The paper finds
that in four applications fewer than 10% of remote pages account for
over 80% of refetches, while radix's refetches are spread almost
uniformly.  fft is omitted (it incurs no capacity/conflict misses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import EXPERIMENT_APPS, cc_config
from repro.experiments.executor import Executor
from repro.experiments.runner import Grid, app_grid, run_grid
from repro.experiments.reporting import render_table

#: the paper omits fft from this figure
OMITTED = ("fft",)


@dataclass
class Figure5Result:
    """Per-application refetch CDFs.

    ``curves[app]`` is a list of (fraction_of_remote_pages,
    fraction_of_refetches) points, pages sorted hottest-first.
    """

    curves: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    total_refetches: Dict[str, int] = field(default_factory=dict)
    remote_pages: Dict[str, int] = field(default_factory=dict)

    def refetch_share(self, app: str, page_fraction: float) -> float:
        """Fraction of refetches covered by the hottest ``page_fraction``
        of remote pages (linear interpolation on the CDF)."""
        curve = self.curves[app]
        if not curve:
            return 0.0
        prev_x, prev_y = 0.0, 0.0
        for x, y in curve:
            if x >= page_fraction:
                if x == prev_x:
                    return y
                t = (page_fraction - prev_x) / (x - prev_x)
                return prev_y + t * (y - prev_y)
            prev_x, prev_y = x, y
        return curve[-1][1]


def figure5_grid(scale: float = 1.0, apps: Optional[Sequence[str]] = None) -> Grid:
    """Figure 5's simulations: CC-NUMA (32-KB block cache) per app."""
    apps = [app for app in apps or EXPERIMENT_APPS if app not in OMITTED]
    return app_grid({"CC-NUMA": cc_config()}, scale, apps)


def compute_figure5(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> Figure5Result:
    """Run CC-NUMA (32-KB block cache) per app and build the CDFs."""
    out = Figure5Result()
    for app, row in run_grid(figure5_grid(scale, apps), executor).items():
        result = row["CC-NUMA"]
        by_page = result.refetches_by_page()
        total = sum(by_page.values())
        remote_pages = result.remote_pages_touched
        out.total_refetches[app] = total
        out.remote_pages[app] = remote_pages
        if total == 0 or remote_pages == 0:
            out.curves[app] = []
            continue
        counts = sorted(by_page.values(), reverse=True)
        curve = []
        cumulative = 0
        for i, c in enumerate(counts, start=1):
            cumulative += c
            curve.append((i / remote_pages, cumulative / total))
        # Pages with zero refetches complete the x-axis.
        if len(counts) < remote_pages:
            curve.append((1.0, 1.0))
        out.curves[app] = curve
    return out


def format_figure5(result: Figure5Result) -> str:
    """The paper's headline cut points of each CDF as a table."""
    fractions = (0.10, 0.30, 0.50, 1.00)
    headers = ["app", "remote pages", "refetches"] + [
        f"top {int(f * 100)}% pages" for f in fractions
    ]
    rows = []
    for app, curve in result.curves.items():
        if not curve:
            rows.append([app, result.remote_pages[app], 0] + ["-"] * len(fractions))
            continue
        rows.append(
            [app, result.remote_pages[app], result.total_refetches[app]]
            + [f"{result.refetch_share(app, f) * 100:.0f}%" for f in fractions]
        )
    return render_table(
        headers,
        rows,
        title=(
            "Figure 5: cumulative refetch distribution vs. fraction of "
            "remote pages (CC-NUMA, 32-KB block cache)"
        ),
    )
