"""Identity of (application, configuration) runs, and experiment grids.

Keys capture everything that affects a run, so the executor and its
on-disk store serve each run once however many figures need it (the
ideal baseline appears in nearly all of them).

Every computed report section declares its simulations once, as a grid
``{row: {column: Job}}``: the figure's rows (applications, or
application x machine points) by its named systems, baseline included.
:func:`grid_jobs` flattens a grid for the up-front union ``reproduce``
submits; :func:`run_grid` reads the results back in the grid's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.common.params import SystemConfig
from repro.sim.results import SimulationResult
from repro.workloads.registry import workload_names

if TYPE_CHECKING:
    from repro.experiments.executor import Executor

#: the ten applications, in the paper's figure order
EXPERIMENT_APPS = tuple(workload_names())

#: type -> names of its dataclass fields (``()`` for a leaf type),
#: looked up once per type so a key costs one pass over values.
_KEY_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _identity(value: Any) -> Any:
    cls = type(value)
    names = _KEY_FIELDS.get(cls)
    if names is None:
        names = _KEY_FIELDS[cls] = (
            tuple(f.name for f in fields(cls)) if is_dataclass(cls) else ()
        )
    if not names:
        return value
    return tuple([_identity(getattr(value, name)) for name in names])


def config_key(config: SystemConfig) -> Tuple:
    """Hashable identity of a system configuration: the values of every
    ``SystemConfig`` field, recursing into the frozen parameter
    dataclasses, so a new field can never be left out of the store
    key."""
    return _identity(config)


def run_key(app: str, config: SystemConfig, scale: float = 1.0) -> Tuple:
    """Hashable identity of one simulation run (cache/store key)."""
    return (app, scale, config_key(config))


@dataclass(frozen=True)
class Job:
    """One simulation to run: an application under a configuration."""

    app: str
    config: SystemConfig
    scale: float = 1.0

    @cached_property
    def key(self) -> Tuple:
        # Every sweep phase looks a job up several times; derive once.
        return run_key(self.app, self.config, self.scale)


#: ``{row: {column: job}}``, rows and columns in report order.
Grid = Dict[Hashable, Dict[Hashable, Job]]


def app_grid(
    systems: Mapping[Hashable, SystemConfig], scale: float, apps: Iterable[str]
) -> Grid:
    """One row per app, one column per named system."""
    return {
        app: {name: Job(app, cfg, scale) for name, cfg in systems.items()}
        for app in apps
    }


def grid_jobs(grid: Grid) -> List[Job]:
    """Every distinct job of ``grid`` once, in first-seen order (rows
    often share a baseline job)."""
    unique: Dict[Tuple, Job] = {}
    for row in grid.values():
        for job in row.values():
            unique.setdefault(job.key, job)
    return list(unique.values())


def run_grid(
    grid: Grid, executor: Optional[Executor] = None
) -> Dict[Hashable, Dict[Hashable, SimulationResult]]:
    """Run ``grid`` in one :meth:`Executor.run` call (on a fresh serial
    executor when None) and return ``{row: {column: result}}``; cells
    that share a job share its result object."""
    if executor is None:
        # Imported here: the executor module imports this one.
        from repro.experiments.executor import Executor

        executor = Executor()
    jobs = [job for row in grid.values() for job in row.values()]
    results = iter(executor.run(jobs))
    return {
        name: {column: next(results) for column in row}
        for name, row in grid.items()
    }


def normalized(
    row: Mapping[Hashable, SimulationResult], base: Hashable = "ideal"
) -> Dict[Hashable, float]:
    """Every column of ``row`` but ``base``, as execution time relative
    to the ``base`` column's run."""
    baseline = row[base]
    return {
        column: result.normalized_to(baseline)
        for column, result in row.items()
        if column != base
    }
