"""Table 4: characterizing block refetches and page replacements.

Three columns per application:

- the fraction of CC-NUMA refetches that fall on read-write shared
  pages (showing read-only replication would not help);
- R-NUMA's refetches as a percentage of CC-NUMA's;
- R-NUMA's page replacements as a percentage of S-COMA's.

Systems: CC-NUMA b=32K, S-COMA p=320K, R-NUMA b=128/p=320K/T=64.
The paper omits fft (no capacity misses, almost no replacements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.common.params import base_ccnuma_config, base_rnuma_config, base_scoma_config
from repro.experiments.executor import Executor
from repro.experiments.runner import EXPERIMENT_APPS, Grid, app_grid, run_grid
from repro.experiments.reporting import render_table

OMITTED = ("fft",)


@dataclass
class Table4Row:
    rw_page_refetch_fraction: float  # of CC-NUMA refetches
    rnuma_refetch_pct: Optional[float]  # % of CC-NUMA refetches
    rnuma_replacement_pct: Optional[float]  # % of S-COMA replacements


@dataclass
class Table4Result:
    rows: Dict[str, Table4Row] = field(default_factory=dict)


def table4_grid(scale: float = 1.0, apps: Optional[Sequence[str]] = None) -> Grid:
    """Table 4's simulations: the three base systems per app."""
    systems = {
        "CC-NUMA": base_ccnuma_config(),
        "S-COMA": base_scoma_config(),
        "R-NUMA": base_rnuma_config(),
    }
    apps = [app for app in apps or EXPERIMENT_APPS if app not in OMITTED]
    return app_grid(systems, scale, apps)


def compute_table4(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> Table4Result:
    out = Table4Result()
    for app, row in run_grid(table4_grid(scale, apps), executor).items():
        cc, sc, rn = row["CC-NUMA"], row["S-COMA"], row["R-NUMA"]

        by_page = cc.refetches_by_page()
        total = sum(by_page.values())
        rw_pages = cc.rw_shared_pages
        rw_refetches = sum(c for p, c in by_page.items() if p in rw_pages)
        rw_fraction = rw_refetches / total if total else 0.0

        cc_refetches = cc.total("refetches")
        refetch_pct = (
            100.0 * rn.total("refetches") / cc_refetches if cc_refetches else None
        )
        sc_repl = sc.total("page_replacements")
        repl_pct = (
            100.0 * rn.total("page_replacements") / sc_repl if sc_repl else None
        )
        out.rows[app] = Table4Row(rw_fraction, refetch_pct, repl_pct)
    return out


def format_table4(result: Table4Result) -> str:
    headers = [
        "app",
        "CC-NUMA RW pages",
        "R-NUMA refetches",
        "R-NUMA replacements",
    ]
    rows = []
    for app, row in result.rows.items():
        rows.append(
            [
                app,
                f"{row.rw_page_refetch_fraction * 100:.0f}%",
                "-" if row.rnuma_refetch_pct is None else f"{row.rnuma_refetch_pct:.0f}%",
                "-"
                if row.rnuma_replacement_pct is None
                else f"{row.rnuma_replacement_pct:.0f}%",
            ]
        )
    return render_table(
        headers,
        rows,
        title=(
            "Table 4: refetches on read-write pages (CC-NUMA), and R-NUMA "
            "refetches/replacements as % of CC-NUMA/S-COMA"
        ),
    )
