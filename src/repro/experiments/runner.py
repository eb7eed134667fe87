"""Run (application, configuration) pairs with memoization.

The figures overlap heavily — the ideal baseline appears in every one,
the base CC/S/R systems in several — so a shared :class:`ResultCache`
avoids re-simulating.  Keys capture everything that affects a run.

For parallel fan-out and a persistent on-disk store, see
:mod:`repro.experiments.executor`, which layers on top of this cache.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Dict, Optional, Tuple

from repro.common.params import SystemConfig
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.workloads.registry import build_program

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


class ResultCache:
    """Memoizes simulation results per (app, scale, config)."""

    def __init__(self) -> None:
        self._results: Dict[Tuple, SimulationResult] = {}

    def run(
        self, app: str, config: SystemConfig, scale: float = 1.0
    ) -> SimulationResult:
        key = run_key(app, config, scale)
        result = self._results.get(key)
        if result is None:
            program = build_program(
                app, machine=config.machine, space=config.space, scale=scale
            )
            # Hand the compiled program straight to the engine: its
            # columns run without a conversion pass and its memoized
            # first-touch map is shared across protocols.
            result = simulate(config, program)
            self._results[key] = result
        return result

    def get(self, key: Tuple) -> Optional[SimulationResult]:
        """Look up a memoized result by its :func:`run_key`."""
        return self._results.get(key)

    def put(self, key: Tuple, result: SimulationResult) -> None:
        """Insert a result computed elsewhere (executor fan-out, store)."""
        self._results[key] = result

    def __len__(self) -> int:
        return len(self._results)

    def clear(self) -> None:
        self._results.clear()


_default_cache = ResultCache()


def run_app(
    app: str,
    config: SystemConfig,
    scale: float = 1.0,
    cache: Optional[ResultCache] = None,
) -> SimulationResult:
    """Simulate one application under one configuration (memoized)."""
    if cache is None:
        cache = _default_cache
    return cache.run(app, config, scale)


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
