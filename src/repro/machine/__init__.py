"""Machine assembly: per-node hardware bundles and the whole-cluster
:class:`~repro.machine.machine.Machine` (nodes + directory + network +
home placement).
"""
