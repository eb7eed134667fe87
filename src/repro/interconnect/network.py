"""Topology-aware inter-node network.

The paper assumes a constant-latency (100 cycle) point-to-point network
and models contention at the network interfaces, not inside the fabric.
``Network`` owns one :class:`BusyResource` per node for the NI and one
for the home protocol controller (RAD), and computes the end-to-end
delay of a request/response round trip.  :meth:`Network.round_trip_delay`
is the one place that delay is charged: both engines call it for every
remote fetch, home recall and home-write invalidation, so the NI, RAD
and link queueing of a round trip is split out in one method.

Since the topology subsystem (:mod:`repro.interconnect.topology` /
:mod:`repro.interconnect.routing`) the fabric itself is pluggable: a
non-uniform topology adds one :class:`BusyResource` per directed link
and charges each message hop latency (``costs.link_latency``) plus
link occupancy (``costs.link_occupancy``) along its precomputed route.
The route is walked link by link through the flat next-hop arrays of
the memoized :class:`~repro.interconnect.routing.RoutingTable` — two
array reads per hop, zero per-message graph work.  The default
``uniform`` topology has no internal links, so its per-message
arithmetic is *exactly* the paper's fixed-latency model, bit for bit.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigurationError
from repro.common.params import CostParams
from repro.interconnect.resource import BusyResource
from repro.interconnect.routing import RoutingTable, routing_table_for


class Network:
    """Fabric with per-node NI/RAD occupancy and per-link contention."""

    __slots__ = (
        "nodes",
        "latency",
        "topology",
        "routing",
        "_costs",
        "_ni_occ",
        "_rad_occ",
        "nis",
        "rads",
        "links",
        "messages",
        "round_trips",
        "one_ways",
    )

    def __init__(
        self, nodes: int, costs: CostParams, topology: str = "uniform"
    ) -> None:
        if nodes <= 0:
            raise ConfigurationError("network needs at least one node")
        self.nodes = nodes
        self.latency = costs.network_latency
        self.topology = topology
        self.routing: RoutingTable = routing_table_for(topology, nodes)
        self._costs = costs
        # Bound once: charged on every message.
        self._ni_occ = costs.ni_occupancy
        self._rad_occ = costs.rad_occupancy
        self.nis: List[BusyResource] = [BusyResource(f"ni{n}") for n in range(nodes)]
        self.rads: List[BusyResource] = [BusyResource(f"rad{n}") for n in range(nodes)]
        self.links: List[BusyResource] = [
            BusyResource(f"link{u}->{v}")
            for u, v in self.routing.link_endpoints
        ]
        self.messages = 0
        self.round_trips = 0
        self.one_ways = 0

    def _traverse(self, src: int, dst: int, depart: int) -> int:
        """Charge the request's links; returns its arrival time at
        ``dst``'s wire endpoint (queueing + occupancy + hop latency
        accumulate hop by hop).  No-op for directly wired pairs."""
        if src == dst:
            return depart
        routing = self.routing
        n = self.nodes
        nl = routing.next_link
        lt = routing.link_to
        costs = self._costs
        occ = costs.link_occupancy
        hop = costs.link_latency
        links = self.links
        t = depart
        at = src
        while at != dst:
            li = nl[at * n + dst]
            t += links[li].acquire(t, occ) + occ + hop
            at = lt[li]
        return t

    def round_trip_delay(self, src: int, dst: int, now: int, extra_home_occupancy: int = 0) -> int:
        """Queueing delay for a request from ``src`` serviced at ``dst``.

        The fixed wire/service latency (2x network + DRAM etc.) is part
        of the caller's ``remote_fetch`` constant; this method returns
        only the *added* delay: NI/RAD/link queueing, plus — on a
        non-uniform topology — the per-hop link latency and occupancy
        the idealized constant-latency fabric does not pay.  Occupancy
        is charged to the source NI, every link on the request route,
        and the destination RAD.

        The NI and RAD acquires are :meth:`BusyResource.acquire`
        inlined, without its occupancy check: ``CostParams`` rejects a
        negative occupancy or ``invalidate_per_sharer``.
        """
        self.messages += 1
        self.round_trips += 1
        ni_occ = self._ni_occ
        ni = self.nis[src]
        start = ni.free_at
        if now > start:
            start = now
        ni.free_at = start + ni_occ
        ni.busy_cycles += ni_occ
        ni.transactions += 1
        latency = self.latency
        if self.links:
            arrive = self._traverse(src, dst, start + ni_occ) + latency
        else:
            # Uniform fabric: no internal links, the request arrives one
            # wire latency after departure (the paper's fixed model).
            arrive = start + ni_occ + latency
        rad = self.rads[dst]
        rad_occ = self._rad_occ + extra_home_occupancy
        start = rad.free_at
        if arrive > start:
            start = arrive
        rad.free_at = start + rad_occ
        rad.busy_cycles += rad_occ
        rad.transactions += 1
        # The RAD starts the request this long after an unhindered one
        # would: NI queueing, the route's links, and RAD queueing.
        return start - now - ni_occ - latency

    def one_way_delay(self, src: int, now: int, dst: int = -1) -> int:
        """Contention delay for a fire-and-forget message (write-back,
        flush): only the source NI is on the requester's critical path.

        When the destination is known and the topology has internal
        links, the message still occupies its route (back-pressure on
        later traffic) — but off the critical path, so the links' wait
        and hop latency are not part of the returned delay.
        """
        self.messages += 1
        self.one_ways += 1
        wait = self.nis[src].acquire(now, self._ni_occ)
        if dst >= 0 and self.links:
            self._traverse(src, dst, now + wait + self._ni_occ)
        return wait
