"""Unit tests for OS page services (map, allocate, replace, relocate)."""

import pytest

from repro.caches.finegrain import BLOCK_READONLY, BLOCK_WRITABLE
from repro.coherence.states import MODIFIED, SHARED
from repro.common.errors import ProtocolError
from repro.machine.machine import Machine
from repro.osint.services import (
    allocate_scoma_page,
    map_cc_page,
    relocate_page_to_scoma,
    replace_scoma_page,
)
from repro.vm.page_table import MAP_CC, MAP_SCOMA, MAP_UNMAPPED

from tests.conftest import tiny_config


def make(protocol="rnuma"):
    config = tiny_config(protocol)
    machine = Machine(config)
    return machine, machine.nodes[0]


class TestMapCC:
    def test_maps_and_charges_soft_trap(self):
        machine, node = make()
        cost = map_cc_page(machine, node, 5)
        assert cost == machine.config.costs.soft_trap
        assert node.page_table.mapping_of(5) == MAP_CC
        assert node.stats.page_faults == 1


class TestAllocate:
    def test_allocates_free_frame(self):
        machine, node = make("scoma")
        cost = allocate_scoma_page(machine, node, 5)
        assert cost == machine.config.costs.page_op_cost(0)
        assert node.page_table.mapping_of(5) == MAP_SCOMA
        assert 5 in node.page_cache
        assert node.tags.is_mapped(5)
        assert node.stats.page_allocations == 1

    def test_allocation_replaces_lrm_victim_when_full(self):
        machine, node = make("scoma")
        allocate_scoma_page(machine, node, 1)
        allocate_scoma_page(machine, node, 2)
        cost = allocate_scoma_page(machine, node, 3)
        assert 1 not in node.page_cache  # LRM victim
        assert 3 in node.page_cache
        assert node.stats.page_replacements == 1
        assert cost >= machine.config.costs.page_op_cost(0)

    def test_allocate_without_page_cache_raises(self):
        machine, node = make("ccnuma")  # page cache capacity 0
        with pytest.raises(ProtocolError):
            allocate_scoma_page(machine, node, 5)


class TestReplace:
    def test_flushes_valid_blocks_and_notifies_home(self):
        machine, node = make("scoma")
        allocate_scoma_page(machine, node, 1)
        # Simulate two fetched blocks on page 1 (blocks 8 and 9).
        machine.directory.read_request(8, 0)
        machine.directory.read_request(9, 0)
        node.tags.set(1, 0, BLOCK_READONLY)
        node.tags.set(1, 1, BLOCK_WRITABLE)
        node.l1s[0].insert(8, SHARED)
        flushed = replace_scoma_page(machine, node, 1)
        assert flushed == 2
        assert not node.tags.is_mapped(1)
        assert node.page_table.mapping_of(1) == MAP_UNMAPPED
        assert not machine.directory.was_held_by(8, 0)
        assert not node.l1s[0].contains(8)
        assert node.stats.blocks_flushed == 2

    def test_tlb_shootdown_counted(self):
        machine, node = make("scoma")
        allocate_scoma_page(machine, node, 1)
        replace_scoma_page(machine, node, 1)
        assert node.stats.tlb_shootdowns == 1


class TestRelocate:
    def _cc_page_with_blocks(self, machine, node, page=1):
        map_cc_page(machine, node, page)
        # Node holds block 8 read-only (block cache) and block 9
        # modified in the L1 with a writable block-cache line.
        machine.directory.read_request(8, 0)
        machine.directory.write_request(9, 0)
        node.block_cache.insert(8, writable=False)
        node.block_cache.insert(9, writable=True)
        node.l1s[0].insert(9, MODIFIED)

    def test_moves_held_blocks_into_tags(self):
        machine, node = make()
        self._cc_page_with_blocks(machine, node)
        cost = relocate_page_to_scoma(machine, node, 1)
        assert node.page_table.mapping_of(1) == MAP_SCOMA
        assert node.tags.get(1, 0) == BLOCK_READONLY
        assert node.tags.get(1, 1) == BLOCK_WRITABLE
        # Blocks left the block cache and the L1 (physical address moved).
        assert node.block_cache.lookup(8) is None
        assert not node.l1s[0].contains(9)
        assert cost == machine.config.costs.page_op_cost(2)

    def test_directory_unchanged_by_relocation(self):
        machine, node = make()
        self._cc_page_with_blocks(machine, node)
        relocate_page_to_scoma(machine, node, 1)
        # The node still holds the blocks — the home must still list it.
        assert machine.directory.was_held_by(8, 0)
        assert machine.directory.owner_of(9) == 0

    def test_relocation_resets_counter_and_counts_stats(self):
        machine, node = make()
        map_cc_page(machine, node, 1)
        node.refetch_counters[1] = 63
        relocate_page_to_scoma(machine, node, 1)
        assert 1 not in node.refetch_counters
        assert node.stats.relocations == 1
        assert node.stats.relocation_interrupts == 1

    def test_relocation_with_full_page_cache_replaces(self):
        machine, node = make()
        allocate_scoma_page(machine, node, 10)
        allocate_scoma_page(machine, node, 11)
        map_cc_page(machine, node, 1)
        relocate_page_to_scoma(machine, node, 1)
        assert node.stats.page_replacements == 1
        assert 1 in node.page_cache

    def test_relocate_without_page_cache_raises(self):
        machine, node = make("ccnuma")
        map_cc_page(machine, node, 1)
        with pytest.raises(ProtocolError):
            relocate_page_to_scoma(machine, node, 1)
