"""Ablation studies of three of the paper's design choices.

Three ablations, each grounded in a specific passage of the paper:

1. **Relocation implementation** (Section 3.2): an aggressive
   implementation moves the node's blocks locally into the page-cache
   frame (C_relocate small, worst-case bound ~2); a less aggressive one
   flushes them home and refetches on demand (C_relocate ~ C_allocate,
   bound ~3).  ``compute_relocation_ablation`` measures R-NUMA both
   ways.
2. **Page-replacement policy** (Section 4): the paper's Least Recently
   Missed policy vs. classical LRU and FIFO.
3. **Page placement** (Section 2.1): first-touch migration vs. naive
   round-robin placement — the paper attributes much of CC-NUMA's
   viability to first-touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Dict, Optional, Sequence

from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
from repro.experiments.executor import Executor
from repro.experiments.reporting import render_table
from repro.experiments.runner import Grid, app_grid, normalized, run_grid
from repro.osint.placement import round_robin_homes
from repro.sim.engine import simulate
from repro.workloads.registry import build_program

DEFAULT_ABLATION_APPS = ("barnes", "em3d", "moldyn", "ocean", "raytrace")


@dataclass
class AblationResult:
    """Normalized execution time per app per variant."""

    title: str
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)
    variants: Sequence[str] = ()

    def penalty(self, app: str, variant: str, baseline: str) -> float:
        """Slowdown of ``variant`` relative to ``baseline`` for ``app``."""
        row = self.normalized[app]
        return row[variant] / row[baseline]


def relocation_ablation_grid(
    scale: float = 1.0, apps: Optional[Sequence[str]] = None
) -> Grid:
    """R-NUMA relocating by local block moves and by flushing home."""
    systems = {
        "ideal": ideal(),
        "R-NUMA local-move": rnuma_config(),
        "R-NUMA flush-home": dc_replace(rnuma_config(), relocation_mode="flush"),
    }
    return app_grid(systems, scale, apps or DEFAULT_ABLATION_APPS)


def compute_relocation_ablation(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> AblationResult:
    """R-NUMA with local block moves vs. flush-home relocation."""
    rows = run_grid(relocation_ablation_grid(scale, apps), executor)
    return AblationResult(
        title="Ablation: relocation implementation (Section 3.2)",
        normalized={app: normalized(row) for app, row in rows.items()},
        variants=("R-NUMA local-move", "R-NUMA flush-home"),
    )


def replacement_ablation_grid(
    scale: float = 1.0, apps: Optional[Sequence[str]] = None
) -> Grid:
    """S-COMA under each page-replacement policy."""
    cfg = scoma_config()
    systems = {"ideal": ideal()}
    for policy in ("lrm", "lru", "fifo"):
        caches = dc_replace(cfg.caches, page_replacement=policy)
        systems[f"S-COMA {policy}"] = dc_replace(cfg, caches=caches)
    return app_grid(systems, scale, apps or DEFAULT_ABLATION_APPS)


def compute_replacement_ablation(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> AblationResult:
    """S-COMA under LRM (paper), LRU, and FIFO page replacement."""
    rows = run_grid(replacement_ablation_grid(scale, apps), executor)
    return AblationResult(
        title="Ablation: page-cache replacement policy (Section 4)",
        normalized={app: normalized(row) for app, row in rows.items()},
        variants=("S-COMA lrm", "S-COMA lru", "S-COMA fifo"),
    )


def placement_ablation_grid(
    scale: float = 1.0, apps: Optional[Sequence[str]] = None
) -> Grid:
    """CC-NUMA with first-touch placement; the round-robin runs are not
    in the grid (see :func:`compute_placement_ablation`)."""
    systems = {"ideal": ideal(), "CC first-touch": cc_config()}
    return app_grid(systems, scale, apps or DEFAULT_ABLATION_APPS)


def compute_placement_ablation(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> AblationResult:
    """CC-NUMA with first-touch vs. round-robin page placement.

    Round-robin homes are outside the run-key space (the key does not
    capture a user-supplied home map), so those runs simulate the
    first-touch cell's config directly rather than through the
    executor's cache/store.
    """
    grid = placement_ablation_grid(scale, apps)
    out = AblationResult(
        title="Ablation: page placement (Section 2.1, first-touch migration)",
        variants=("CC first-touch", "CC round-robin"),
    )
    for app, row in run_grid(grid, executor).items():
        cfg = grid[app]["CC first-touch"].config
        program = build_program(app, machine=cfg.machine, space=cfg.space, scale=scale)
        homes = round_robin_homes(program, cfg.machine, cfg.space)
        round_robin = simulate(cfg, program, dict(homes))
        out.normalized[app] = {
            **normalized(row),
            "CC round-robin": round_robin.normalized_to(row["ideal"]),
        }
    return out


def format_ablation(result: AblationResult) -> str:
    headers = ["app"] + list(result.variants)
    rows = [
        [app] + [result.normalized[app][v] for v in result.variants]
        for app in result.normalized
    ]
    return render_table(headers, rows, title=result.title)
