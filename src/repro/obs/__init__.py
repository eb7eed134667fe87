"""Observability: event tracing, counter time-series, and telemetry.

This package is the *optional* instrumentation layer over the
simulator.  Three design rules govern everything in it:

1. **Zero cost when off.**  Nothing here is imported — let alone
   executed — unless a run explicitly asks for instrumentation via
   :class:`repro.common.params.ObsParams`.  The engines' hot paths
   contain no tracing branches; enabling tracing *wraps* the shared
   miss hook at engine-construction time (:mod:`repro.obs.attach`),
   and disabling it leaves the engine byte-for-byte the code it was
   before this package existed.  A ``timing`` test in
   ``tests/property/test_obs_differential.py`` gates the disabled-path
   cost.
2. **Observational only when on.**  The hooks read simulator state and
   forward return values untouched; a traced run produces bit-identical
   :class:`~repro.sim.results.SimulationResult`\\ s to an untraced one
   (pinned across both engine backends by
   ``tests/property/test_obs_differential.py``).
3. **Stable, validated formats.**  Traces are Chrome-trace-event JSON
   (Perfetto-loadable), metrics are JSONL; both have checked-in schemas
   under :mod:`repro.obs.schemas` and a dependency-free validator
   (:mod:`repro.obs.schema`) that CI runs against real emitted files.

Modules
-------
``trace``
    Streaming Chrome-trace-event writer with category filtering.
``metrics``
    JSONL counter time-series writer.
``attach``
    Installs the per-miss hook on a constructed engine and drives both
    writers; the only module that touches engine internals.
``schema``
    Minimal JSON-Schema-subset validator + loaders for the checked-in
    schemas.
``report``
    Summaries of emitted trace/metrics files (``python -m repro report``).
``provenance``
    Git/host/timestamp provenance blocks shared by perfbench, the
    trace and metrics writers, and the executor's run manifests.
"""
