"""Deterministic fault injection for sweep-robustness testing.

See :mod:`repro.faults.injection` for the spec grammar and the catalog
of named injection points.  Production code paths call
:func:`repro.faults.injection.should_inject` (a single env lookup when
nothing is armed); tests arm plans through the ``REPRO_FAULTS``
environment variable.
"""
