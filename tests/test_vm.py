"""Unit tests for the per-node page table."""

import pytest

from repro.common.errors import ProtocolError
from repro.vm.page_table import (
    MAP_CC,
    MAP_LOCAL,
    MAP_SCOMA,
    MAP_UNMAPPED,
    PageTable,
    mapping_name,
)


class TestPageTable:
    def test_default_unmapped(self):
        assert PageTable().mapping_of(7) == MAP_UNMAPPED

    def test_map_states(self):
        pt = PageTable()
        pt.map_local(1)
        pt.map_cc(2)
        pt.map_scoma(3)
        assert pt.mapping_of(1) == MAP_LOCAL
        assert pt.mapping_of(2) == MAP_CC
        assert pt.mapping_of(3) == MAP_SCOMA
        assert len(pt) == 3

    def test_unmap(self):
        pt = PageTable()
        pt.map_cc(2)
        pt.unmap(2)
        assert pt.mapping_of(2) == MAP_UNMAPPED

    def test_unmap_unmapped_raises(self):
        with pytest.raises(ProtocolError):
            PageTable().unmap(2)

    def test_remap_without_unmap_raises(self):
        pt = PageTable()
        pt.map_cc(2)
        with pytest.raises(ProtocolError):
            pt.map_scoma(2)

    def test_idempotent_same_state(self):
        pt = PageTable()
        pt.map_cc(2)
        pt.map_cc(2)  # allowed: same state
        assert pt.mapping_of(2) == MAP_CC

    def test_pages_mapped(self):
        pt = PageTable()
        pt.map_cc(1)
        pt.map_cc(2)
        pt.map_scoma(3)
        assert sorted(pt.pages_mapped(MAP_CC)) == [1, 2]
        assert pt.pages_mapped(MAP_SCOMA) == [3]

    def test_mapping_name(self):
        assert mapping_name(MAP_CC) == "cc-numa"
        assert mapping_name(MAP_SCOMA) == "s-coma"
        with pytest.raises(ValueError):
            mapping_name(99)
