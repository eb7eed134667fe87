"""Interconnect timing: the split-transaction memory bus inside each node,
the network interface / remote-access-device occupancy, and the
topology-aware inter-node network.

Contention is modeled with busy-until resources: a transaction arriving
at time *t* waits until the resource frees, occupies it for a fixed
occupancy, and the wait is added to the requester's latency.  This is the
level of detail the paper models ("we model contention at the memory bus
... and at the network interfaces", Section 4).

The fabric itself is pluggable (:mod:`repro.interconnect.topology`):
the default ``uniform`` topology reproduces the paper's idealized
constant-latency point-to-point network exactly, while ``ring`` /
``mesh`` / ``torus`` / ``fattree`` route each message along a
precomputed link path (:mod:`repro.interconnect.routing`) and charge
per-hop latency plus per-link busy-until occupancy.
"""
