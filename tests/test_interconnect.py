"""Unit tests for BusyResource and Network contention modeling."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import CostParams
from repro.interconnect.network import Network
from repro.interconnect.resource import BusyResource


class TestBusyResource:
    def test_idle_resource_no_wait(self):
        r = BusyResource("bus")
        assert r.acquire(100, 20) == 0
        assert r.free_at == 120

    def test_back_to_back_queues(self):
        r = BusyResource()
        r.acquire(0, 20)
        assert r.acquire(0, 20) == 20
        assert r.acquire(0, 20) == 40
        assert r.free_at == 60

    def test_gap_resets_wait(self):
        r = BusyResource()
        r.acquire(0, 10)
        assert r.acquire(50, 10) == 0

    def test_out_of_order_arrival_queues_conservatively(self):
        r = BusyResource()
        r.acquire(100, 10)
        # An "earlier" arrival still queues behind the recorded one.
        assert r.acquire(90, 10) == 20

    def test_peek_wait(self):
        r = BusyResource()
        r.acquire(0, 30)
        assert r.peek_wait(10) == 20
        assert r.peek_wait(100) == 0

    def test_accounting(self):
        r = BusyResource()
        r.acquire(0, 5)
        r.acquire(0, 5)
        assert r.transactions == 2
        assert r.busy_cycles == 10

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ConfigurationError):
            BusyResource().acquire(0, -1)


class TestNetwork:
    def test_uncontended_round_trip_has_no_delay(self):
        net = Network(4, CostParams())
        assert net.round_trip_delay(0, 1, now=0) == 0
        assert net.messages == 1

    def test_ni_contention_adds_delay(self):
        costs = CostParams()
        net = Network(4, costs)
        net.round_trip_delay(0, 1, now=0)
        # Second request from node 0 at the same instant queues at its NI.
        delay = net.round_trip_delay(0, 2, now=0)
        assert delay >= costs.ni_occupancy

    def test_home_rad_contention(self):
        costs = CostParams()
        net = Network(4, costs)
        # Two different sources hit the same home back to back.
        net.round_trip_delay(0, 3, now=0)
        delay = net.round_trip_delay(1, 3, now=0)
        assert delay >= costs.rad_occupancy

    def test_extra_home_occupancy(self):
        costs = CostParams()
        net = Network(4, costs)
        net.round_trip_delay(0, 3, now=0, extra_home_occupancy=100)
        delay = net.round_trip_delay(1, 3, now=0)
        assert delay >= costs.rad_occupancy + 100 - costs.ni_occupancy

    def test_one_way_uses_only_source_ni(self):
        net = Network(4, CostParams())
        assert net.one_way_delay(2, now=0) == 0
        assert net.one_way_delay(2, now=0) > 0

    def test_message_kind_counters(self):
        net = Network(4, CostParams())
        net.round_trip_delay(0, 1, now=0)
        net.round_trip_delay(0, 2, now=0)
        net.one_way_delay(3, now=0)
        assert net.round_trips == 2
        assert net.one_ways == 1
        assert net.messages == 3

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            Network(0, CostParams())

    def test_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            Network(4, CostParams(), topology="hypercube")


def _burn(net: Network) -> list:
    """A fixed message mix; returns the per-call delays."""
    delays = []
    now = 0
    for i in range(40):
        src = i % net.nodes
        dst = (i * 3 + 1) % net.nodes
        if dst == src:
            dst = (dst + 1) % net.nodes
        if i % 5 == 4:
            delays.append(net.one_way_delay(src, now, dst=dst))
        else:
            delays.append(net.round_trip_delay(src, dst, now))
        now += 7
    return delays


class TestTopologyNetwork:
    def test_fresh_networks_share_routes_and_repeat(self):
        # Every network of a (topology, size) shares one memoized
        # routing table; a run must leave it as it found it, so a fresh
        # network repeats the same message mix exactly.
        costs = CostParams(link_latency=10, link_occupancy=20)
        for topology in ("uniform", "ring", "torus"):
            first = Network(8, costs, topology=topology)
            first_delays = _burn(first)
            second = Network(8, costs, topology=topology)
            assert second.routing is first.routing
            assert _burn(second) == first_delays
            assert second.messages == first.messages
            assert [r.busy_cycles for r in second.links] == [
                r.busy_cycles for r in first.links
            ]

    def test_uniform_matches_topologyless_construction(self):
        costs = CostParams()
        plain = Network(8, costs)
        uniform = Network(8, costs, topology="uniform")
        assert plain.topology == uniform.topology == "uniform"
        assert _burn(plain) == _burn(uniform)

    def test_multi_hop_adds_link_latency(self):
        costs = CostParams(link_latency=25, link_occupancy=0)
        net = Network(8, costs, topology="ring")
        # 0 -> 4 is the ring diameter: 4 hops, each adding 25 cycles of
        # wire time on the request path, all on the critical path.
        assert net.round_trip_delay(0, 4, now=0) == 4 * 25

    def test_link_contention_queues_messages(self):
        costs = CostParams(link_latency=0, link_occupancy=50)
        net = Network(8, costs, topology="ring")
        first = net.round_trip_delay(0, 1, now=0)
        # Same single-link route again at the same instant: the second
        # message waits out the first's link occupancy.
        second = net.round_trip_delay(0, 1, now=0)
        assert second >= first + 50

    def test_one_way_charges_links_off_critical_path(self):
        costs = CostParams(link_latency=10, link_occupancy=50)
        net = Network(8, costs, topology="ring")
        # The write-back's returned delay is NI-only ...
        assert net.one_way_delay(0, now=0, dst=1) == 0
        # ... but it occupied the 0->1 link, so a following request
        # over the same link queues behind it.
        delayed = net.round_trip_delay(0, 1, now=0)
        net2 = Network(8, costs, topology="ring")
        net2.one_way_delay(0, now=0)  # no destination: no link charged
        undelayed = net2.round_trip_delay(0, 1, now=0)
        assert delayed > undelayed
