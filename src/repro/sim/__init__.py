"""Execution engine: drives per-processor traces through the machine
model with per-processor clocks, contention, and barrier synchronization,
and produces a :class:`~repro.sim.results.SimulationResult`.

:func:`repro.sim.engine.simulate` is the one way to run a simulation.
It takes the engine backend by name (its ``ENGINES`` table): the
run-ahead engine (the default, the production path) or the classic
one-event-per-reference loop (``engine="reference"``,
:class:`repro.sim.reference.ReferenceEngine`, the differential-testing
oracle).  Observability enters there too, as its ``obs`` argument.
"""
