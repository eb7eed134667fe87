"""Execution engine: drives per-processor traces through the machine
model with per-processor clocks, contention, and barrier synchronization,
and produces a :class:`SimulationResult`.

Two schedulers share one miss-path contract, selected by name (see
:mod:`repro.sim.factory`): the run-ahead engine (:func:`simulate`'s
default, the production path) and the classic one-event-per-reference
loop (:func:`simulate_reference`, the differential-testing oracle and
benchmark baseline).
"""

from repro.sim.engine import SimulationEngine, simulate
from repro.sim.factory import engine_backends, make_engine
from repro.sim.reference import ReferenceEngine, simulate_reference
from repro.sim.results import SimulationResult

__all__ = [
    "ReferenceEngine",
    "SimulationEngine",
    "SimulationResult",
    "engine_backends",
    "make_engine",
    "simulate",
    "simulate_reference",
]
