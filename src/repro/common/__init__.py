"""Shared building blocks: addressing, parameters, records, statistics.

Everything in this package is protocol-agnostic.  The simulator, the three
DSM protocols, and the workload generators all speak in terms of the types
defined here.
"""
