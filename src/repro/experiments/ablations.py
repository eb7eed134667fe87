"""Ablation studies for the design choices DESIGN.md calls out.

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
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import EXPERIMENT_APPS, cc_config, ideal, rnuma_config, scoma_config
from repro.experiments.executor import Executor, Job, ensure_executor
from repro.experiments.reporting import render_table
from repro.experiments.runner import ResultCache
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


def _flush_rnuma_config():
    return dc_replace(rnuma_config(), relocation_mode="flush")


def relocation_ablation_jobs(
    scale: float = 1.0, apps: Optional[Sequence[str]] = None
) -> List[Job]:
    apps = list(apps or DEFAULT_ABLATION_APPS)
    configs = (ideal(), rnuma_config(), _flush_rnuma_config())
    return [Job(app, cfg, scale) for app in apps for cfg in configs]


def compute_relocation_ablation(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    cache: Optional[ResultCache] = None,
    executor: Optional[Executor] = None,
) -> AblationResult:
    """R-NUMA with local block moves vs. flush-home relocation."""
    apps = list(apps or DEFAULT_ABLATION_APPS)
    exe = ensure_executor(executor, cache)
    exe.run(relocation_ablation_jobs(scale, apps))
    out = AblationResult(
        title="Ablation: relocation implementation (Section 3.2)",
        variants=("R-NUMA local-move", "R-NUMA flush-home"),
    )
    for app in apps:
        base = exe.run_app(app, ideal(), scale=scale)
        local = exe.run_app(app, rnuma_config(), scale=scale)
        flush = exe.run_app(app, _flush_rnuma_config(), scale=scale)
        out.normalized[app] = {
            "R-NUMA local-move": local.normalized_to(base),
            "R-NUMA flush-home": flush.normalized_to(base),
        }
    return out


def _scoma_policy_config(policy: str):
    cfg = scoma_config()
    return dc_replace(cfg, caches=dc_replace(cfg.caches, page_replacement=policy))


def replacement_ablation_jobs(
    scale: float = 1.0, apps: Optional[Sequence[str]] = None
) -> List[Job]:
    apps = list(apps or DEFAULT_ABLATION_APPS)
    configs = [ideal()] + [
        _scoma_policy_config(p) for p in ("lrm", "lru", "fifo")
    ]
    return [Job(app, cfg, scale) for app in apps for cfg in configs]


def compute_replacement_ablation(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    cache: Optional[ResultCache] = None,
    executor: Optional[Executor] = None,
) -> AblationResult:
    """S-COMA under LRM (paper), LRU, and FIFO page replacement."""
    apps = list(apps or DEFAULT_ABLATION_APPS)
    exe = ensure_executor(executor, cache)
    exe.run(replacement_ablation_jobs(scale, apps))
    out = AblationResult(
        title="Ablation: page-cache replacement policy (Section 4)",
        variants=("S-COMA lrm", "S-COMA lru", "S-COMA fifo"),
    )
    for app in apps:
        base = exe.run_app(app, ideal(), scale=scale)
        row = {}
        for policy in ("lrm", "lru", "fifo"):
            result = exe.run_app(app, _scoma_policy_config(policy), scale=scale)
            row[f"S-COMA {policy}"] = result.normalized_to(base)
        out.normalized[app] = row
    return out


def placement_ablation_jobs(
    scale: float = 1.0, apps: Optional[Sequence[str]] = None
) -> List[Job]:
    apps = list(apps or DEFAULT_ABLATION_APPS)
    configs = (ideal(), cc_config())
    return [Job(app, cfg, scale) for app in apps for cfg in configs]


def compute_placement_ablation(
    scale: float = 1.0,
    apps: Optional[Sequence[str]] = None,
    cache: Optional[ResultCache] = None,
    executor: Optional[Executor] = None,
) -> AblationResult:
    """CC-NUMA with first-touch vs. round-robin page placement.

    Round-robin homes are outside the run-key space (the key does not
    capture a user-supplied home map), so those runs are simulated
    directly rather than through the executor's cache/store.
    """
    apps = list(apps or DEFAULT_ABLATION_APPS)
    exe = ensure_executor(executor, cache)
    exe.run(placement_ablation_jobs(scale, apps))
    out = AblationResult(
        title="Ablation: page placement (Section 2.1, first-touch migration)",
        variants=("CC first-touch", "CC round-robin"),
    )
    for app in apps:
        base = exe.run_app(app, ideal(), scale=scale)
        first_touch = exe.run_app(app, cc_config(), scale=scale)
        cfg = cc_config()
        program = build_program(app, machine=cfg.machine, space=cfg.space, scale=scale)
        homes = round_robin_homes(program, cfg.machine, cfg.space)
        round_robin = simulate(cfg, program, dict(homes))
        out.normalized[app] = {
            "CC first-touch": first_touch.normalized_to(base),
            "CC round-robin": round_robin.normalized_to(base),
        }
    return out


def format_ablation(result: AblationResult) -> str:
    headers = ["app"] + list(result.variants)
    rows = [
        [app] + [result.normalized[app][v] for v in result.variants]
        for app in result.normalized
    ]
    return render_table(headers, rows, title=result.title)
