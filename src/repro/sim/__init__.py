"""Execution engine: drives per-processor traces through the machine
model with per-processor clocks, contention, and barrier synchronization,
and produces a :class:`~repro.sim.results.SimulationResult`.

Two schedulers share one miss-path contract, selected by name (see
:mod:`repro.sim.factory`): the run-ahead engine
(:func:`repro.sim.engine.simulate`'s default, the production path) and
the classic one-event-per-reference loop
(:func:`repro.sim.reference.simulate_reference`, the
differential-testing oracle).
"""
