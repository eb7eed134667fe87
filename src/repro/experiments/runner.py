"""Identity and memoization of (application, configuration) runs.

The figures overlap heavily — the ideal baseline appears in every one,
the base CC/S/R systems in several — so a shared :class:`ResultCache`
avoids re-simulating.  Keys capture everything that affects a run.

Simulations run in :mod:`repro.experiments.executor`, which fills this
cache (and a persistent on-disk store); :func:`run_app` is one job
through it.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Dict, Optional, Tuple

from repro.common.params import SystemConfig
from repro.sim.results import SimulationResult

#: type -> names of its compared dataclass fields (``()`` for a leaf
#: type), looked up once per type so a key costs one pass over values.
_KEY_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _identity(value: Any) -> Any:
    cls = type(value)
    names = _KEY_FIELDS.get(cls)
    if names is None:
        names = _KEY_FIELDS[cls] = (
            tuple(f.name for f in fields(cls) if f.compare) if is_dataclass(cls) else ()
        )
    if not names:
        return value
    return tuple([_identity(getattr(value, name)) for name in names])


def config_key(config: SystemConfig) -> Tuple:
    """Hashable identity of a system configuration: the values of every
    field that takes part in ``SystemConfig`` equality, recursing into
    the frozen parameter dataclasses, so a new field can never be left
    out of the store key.  ``obs`` (``compare=False``) stays out."""
    return _identity(config)


def run_key(app: str, config: SystemConfig, scale: float = 1.0) -> Tuple:
    """Hashable identity of one simulation run (cache/store key)."""
    return (app, scale, config_key(config))


class ResultCache(Dict[Tuple, SimulationResult]):
    """Simulation results per :func:`run_key`: a plain map the executor
    fills with fresh simulations and store hits."""


_default_cache = ResultCache()


def run_app(
    app: str,
    config: SystemConfig,
    scale: float = 1.0,
    cache: Optional[ResultCache] = None,
) -> SimulationResult:
    """Simulate one application under one configuration (memoized),
    through a serial :class:`~repro.experiments.executor.Executor`
    over ``cache`` (the process-wide default when None)."""
    # Imported here: the executor module imports this one.
    from repro.experiments.executor import ensure_executor

    return ensure_executor(None, cache).run_app(app, config, scale)


def default_cache() -> ResultCache:
    """The process-wide cache used when callers pass ``cache=None``."""
    return _default_cache


def set_default_cache(cache: ResultCache) -> ResultCache:
    """Replace the process-wide cache; returns the previous one.

    Long-lived processes (and test suites sharing a process) can swap in
    a fresh cache instead of letting the module-level one grow without
    bound or leak results across unrelated runs.
    """
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def clear_default_cache() -> None:
    """Drop every memoized result from the process-wide cache."""
    _default_cache.clear()
