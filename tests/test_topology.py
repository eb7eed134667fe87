"""Unit tests for the interconnect topologies and routing tables."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import SystemConfig
from repro.interconnect.routing import RoutingTable, routing_table_for
from repro.interconnect.topology import (
    TOPOLOGIES,
    grid_dims,
    make_topology,
    topology_names,
)


class TestRegistry:
    def test_names_match_systemconfig_validation(self):
        # SystemConfig validates against the registry itself: it accepts
        # every registered name and lists them all, in order, when it
        # rejects one.
        for name in topology_names():
            assert SystemConfig(topology=name).topology == name
        with pytest.raises(ConfigurationError) as err:
            SystemConfig(topology="hypercube")
        assert str(err.value).endswith(f"expected one of {topology_names()}")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            make_topology("hypercube", 8)
        with pytest.raises(ConfigurationError):
            routing_table_for("hypercube", 8)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_topology("ring", 0)

    def test_systemconfig_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(topology="hypercube")


def _route_is_valid(table: RoutingTable, topology, src: int, dst: int):
    """The path's links must chain src -> dst through declared links."""
    path = table.path(src, dst)
    if not path:
        return
    endpoints = table.link_endpoints
    assert endpoints[path[0]][0] == src
    assert endpoints[path[-1]][1] == dst
    for a, b in zip(path, path[1:]):
        assert endpoints[a][1] == endpoints[b][0]


@pytest.mark.parametrize("name", topology_names())
@pytest.mark.parametrize("nodes", [1, 2, 3, 4, 7, 8, 16])
class TestEveryTopology:
    def test_routes_chain_and_hops_match(self, name, nodes):
        table = routing_table_for(name, nodes)
        for src in range(nodes):
            for dst in range(nodes):
                if src == dst:
                    assert table.hop_count(src, dst) == 0
                    assert table.path(src, dst) == []
                else:
                    assert table.hop_count(src, dst) >= 1
                _route_is_valid(table, name, src, dst)

    def test_hop_symmetry(self, name, nodes):
        # Every shipped topology routes symmetric-length paths (the
        # directions may differ, the distances must not).
        table = routing_table_for(name, nodes)
        for src in range(nodes):
            for dst in range(nodes):
                assert table.hop_count(src, dst) == table.hop_count(dst, src)

    def test_links_are_unique_and_in_range(self, name, nodes):
        table = routing_table_for(name, nodes)
        assert len(set(table.link_endpoints)) == table.link_count
        for link in table.next_link:
            assert -1 <= link < table.link_count

    def test_closed_forms_match_route(self, name, nodes):
        # pair_hops / hops_row / next_hop are O(1) re-derivations of
        # route(); they must agree pairwise at every small size (the
        # routing table trusts them outright past VALIDATE_NODES).
        topo = make_topology(name, nodes)
        for src in range(nodes):
            row = topo.hops_row(src)
            for dst in range(nodes):
                route = topo.route(src, dst)
                assert topo.pair_hops(src, dst) == len(route) - 1
                assert row[dst] == len(route) - 1
                for at, nxt in zip(route, route[1:]):
                    assert topo.next_hop(at, dst) == nxt


class TestUniform:
    def test_no_links_single_hop(self):
        table = routing_table_for("uniform", 8)
        assert table.link_count == 0
        assert table.max_hops() == 1
        assert table.mean_hops() == 1.0
        assert len(table.next_link) == 0


class TestRing:
    def test_shortest_direction(self):
        table = routing_table_for("ring", 8)
        assert table.hop_count(0, 1) == 1
        assert table.hop_count(0, 7) == 1  # wraps backwards
        assert table.hop_count(0, 4) == 4  # diameter
        assert table.max_hops() == 4

    def test_link_count(self):
        assert routing_table_for("ring", 8).link_count == 16  # 2 per node
        assert routing_table_for("ring", 1).link_count == 0


class TestMeshAndTorus:
    def test_grid_dims(self):
        assert grid_dims(16) == (4, 4)
        assert grid_dims(8) == (2, 4)
        assert grid_dims(7) == (1, 7)  # prime degrades to a line
        assert grid_dims(1) == (1, 1)

    def test_mesh_manhattan_distance(self):
        table = routing_table_for("mesh", 16)  # 4x4
        assert table.hop_count(0, 3) == 3  # along the top row
        assert table.hop_count(0, 15) == 6  # corner to corner
        assert table.max_hops() == 6

    def test_torus_wraps(self):
        table = routing_table_for("torus", 16)  # 4x4 with wrap
        assert table.hop_count(0, 3) == 1  # row wrap
        assert table.hop_count(0, 12) == 1  # column wrap
        assert table.hop_count(0, 15) == 2
        assert table.max_hops() == 4
        assert table.mean_hops() < routing_table_for("mesh", 16).mean_hops()

    def test_two_wide_torus_dimension_dedups_links(self):
        # On a 2-long wrapped dimension both directions are the same
        # neighbor; the link list must not declare it twice.
        table = routing_table_for("torus", 4)  # 2x2
        assert len(set(table.link_endpoints)) == table.link_count


class TestFatTree:
    def test_two_hops_everywhere(self):
        table = routing_table_for("fattree", 8)
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    assert table.hop_count(src, dst) == 2
        assert table.link_count == 16  # one up + one down per node

    def test_pairs_share_only_endpoint_links(self):
        # 0->3 and 1->2 are disjoint; 0->3 and 0->2 share the uplink.
        table = routing_table_for("fattree", 8)
        assert not set(table.path(0, 3)) & set(table.path(1, 2))
        assert set(table.path(0, 3)) & set(table.path(0, 2))


class TestMemoization:
    def test_tables_are_shared(self):
        assert routing_table_for("torus", 16) is routing_table_for("torus", 16)

    def test_cache_is_bounded(self):
        # The memo must not grow without bound: a full sweep's worth of
        # (topology, node count) pairs has to fit, an unbounded churn
        # of node counts must not pin every table forever.
        info = routing_table_for.cache_info()
        assert info.maxsize is not None
        assert info.maxsize >= len(topology_names()) * 8

    def test_reuse_after_churn(self):
        # Recently used tables survive unrelated lookups.
        first = routing_table_for("ring", 16)
        routing_table_for("ring", 12)
        routing_table_for("mesh", 12)
        assert routing_table_for("ring", 16) is first


class TestLargeMachines:
    """Table construction must scale to the 256-1024 node sweeps.

    Past ``RoutingTable.VALIDATE_NODES`` the table skips the exhaustive
    route() comparison, so these tests spot-check walked paths against
    route() at sampled pairs instead.
    """

    @pytest.mark.parametrize("name", topology_names())
    def test_256_nodes_spot_checked(self, name):
        nodes = 256
        table = routing_table_for(name, nodes)
        topo = make_topology(name, nodes)
        endpoints = table.link_endpoints
        for src, dst in [(0, 255), (17, 200), (255, 1), (128, 129), (3, 3)]:
            route = topo.route(src, dst)
            assert table.hop_count(src, dst) == len(route) - 1
            if table.link_count:
                walked = [endpoints[li] for li in table.path(src, dst)]
                assert walked == list(zip(route, route[1:]))

    @pytest.mark.large_n
    @pytest.mark.parametrize("name", topology_names())
    def test_1024_nodes_spot_checked(self, name):
        nodes = 1024
        table = routing_table_for(name, nodes)
        topo = make_topology(name, nodes)
        endpoints = table.link_endpoints
        for src, dst in [(0, 1023), (511, 512), (1023, 0), (77, 900)]:
            route = topo.route(src, dst)
            assert table.hop_count(src, dst) == len(route) - 1
            if table.link_count:
                walked = [endpoints[li] for li in table.path(src, dst)]
                assert walked == list(zip(route, route[1:]))

    @pytest.mark.large_n
    def test_1024_torus_diameter(self):
        table = routing_table_for("torus", 1024)  # 32x32
        assert table.max_hops() == 32  # 16 + 16
        assert table.hop_count(0, 1023) == 2  # corner wraps both axes
