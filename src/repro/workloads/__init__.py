"""Workload suite: scaled SPLASH-2-style mini-kernels (Table 3) plus
synthetic adversarial reference streams.

Each application module builds a :class:`~repro.workloads.base.Program`
— one trace per processor with barriers — by *running* a miniature
version of the real computation (LU elimination order, FFT transpose,
radix scatter, n-body tree walks, stencil sweeps, ...) over a laid-out
shared address space.  Scaling a kernel preserves its sharing type,
working-set size relative to the paper's cache sizes, page-level
density, and load imbalance; absolute instruction counts are not
preserved.
"""
