"""Unit tests for machine assembly, stats, and trace records."""

import pytest

from repro.caches.block_cache import BlockCache
from repro.common.records import Access, Barrier
from repro.common.stats import NodeStats, StatsRegistry
from repro.machine.machine import Machine
from repro.machine.node import Node

from tests.conftest import TINY_SPACE, tiny_config


class TestNode:
    def test_ccnuma_node_has_no_page_frames(self):
        node = Node(0, tiny_config("ccnuma"))
        assert node.page_cache.capacity == 0
        assert node.block_cache.num_blocks == 2

    def test_scoma_node_has_frames(self):
        node = Node(0, tiny_config("scoma"))
        assert node.page_cache.capacity == 2

    def test_ideal_node_has_infinite_block_cache(self):
        node = Node(0, tiny_config("ideal"))
        assert node.block_cache.is_infinite

    def test_cpu_count(self):
        node = Node(0, tiny_config("rnuma"))
        assert node.cpu_count == 1
        assert len(node.l1s) == 1


class TestMachine:
    def test_builds_nodes(self):
        machine = Machine(tiny_config("rnuma"))
        assert len(machine.nodes) == 2
        assert machine.node(1).node_id == 1

    def test_refetch_recording(self):
        machine = Machine(tiny_config("rnuma"))
        machine.record_refetch(0, 5)
        machine.record_refetch(0, 5)
        machine.record_refetch(1, 5)
        assert machine.refetch_counts[0][5] == 2
        assert machine.refetches_by_page() == {5: 3}

    def test_rw_shared_pages(self):
        machine = Machine(tiny_config("rnuma"))
        machine.page_requesters[1] = 0b11
        machine.page_writers[1] = 0b01
        machine.page_requesters[2] = 0b11     # read-only shared
        machine.page_requesters[3] = 0b01     # private
        machine.page_writers[3] = 0b01
        assert machine.read_write_shared_pages() == {1}


class TestStats:
    def test_node_stats_as_dict(self):
        stats = NodeStats(l1_hits=3)
        d = stats.as_dict()
        assert d["l1_hits"] == 3
        assert "remote_fetches" in d

    def test_registry_totals(self):
        reg = StatsRegistry.for_nodes(3)
        reg.node(0).refetches = 2
        reg.node(2).refetches = 5
        assert reg.total("refetches") == 7
        assert reg.as_dict()["refetches"] == 7

    def test_registry_barriers(self):
        reg = StatsRegistry.for_nodes(1)
        reg.barriers_crossed = 4
        assert reg.as_dict()["barriers_crossed"] == 4


class TestRecords:
    def test_access_validation(self):
        with pytest.raises(ValueError):
            Access(-1)
        with pytest.raises(ValueError):
            Access(0, think=-1)

    def test_barrier_validation(self):
        with pytest.raises(ValueError):
            Barrier(-1)

    def test_records_are_frozen(self):
        a = Access(0)
        with pytest.raises(Exception):
            a.addr = 5
