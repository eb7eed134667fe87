"""Engine backends, selected by name.

Two interchangeable schedulers drive the same machine model and miss
path:

``runahead``
    The drain-loop scheduler (:class:`~repro.sim.engine.SimulationEngine`),
    the production engine: every sweep runs on it.
``reference``
    The frozen classic loop over the pre-columnar structures
    (:class:`~repro.sim.reference.ReferenceEngine`), the differential
    oracle.  It models only the exact full-map directory and refuses a
    configuration whose directory can overflow.

Both produce bit-identical :class:`SimulationResult`\\ s — the
differential property suites pin the contract — so the backend is a
run-time argument, not part of a configuration or of a result's
identity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.params import SystemConfig
from repro.sim.engine import SimulationEngine


def _reference(config, traces, homes):
    from repro.sim.reference import ReferenceEngine

    return ReferenceEngine(config, traces, homes)


#: backend name -> (constructor taking (config, traces, homes), summary).
_BACKENDS = {
    "runahead": (SimulationEngine, "drain-loop scheduler (production default)"),
    "reference": (_reference, "classic per-reference loop (differential oracle)"),
}

#: Every backend name.
ENGINES = tuple(_BACKENDS)


def engine_backends() -> List[Dict[str, str]]:
    """``{name, summary}`` per backend, for the CLI ``engines`` listing."""
    return [{"name": name, "summary": s} for name, (_, s) in _BACKENDS.items()]


def make_engine(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
    engine: str = "runahead",
) -> SimulationEngine:
    """Construct (but do not run) the named engine backend."""
    try:
        build, _ = _BACKENDS[engine]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        ) from None
    return build(config, traces, homes)
