"""Unit tests for the cache structures (L1, block cache, page cache,
fine-grain tags)."""

import pytest

from repro.caches.block_cache import EMPTY, BlockCache
from repro.caches.finegrain import (
    BLOCK_INVALID,
    BLOCK_READONLY,
    BLOCK_WRITABLE,
    FineGrainTags,
)
from repro.caches.l1 import L1Cache
from repro.caches.page_cache import PageCache
from repro.coherence.states import EXCLUSIVE, INVALID, MODIFIED, OWNED, SHARED
from repro.common.errors import ConfigurationError, ProtocolError


class TestL1Cache:
    def test_miss_on_empty(self):
        l1 = L1Cache(4)
        assert l1.state_of(0) == INVALID
        assert not l1.contains(0)

    def test_insert_and_hit(self):
        l1 = L1Cache(4)
        assert l1.insert(5, SHARED) is None
        assert l1.state_of(5) == SHARED
        assert l1.contains(5)

    def test_direct_mapped_conflict(self):
        l1 = L1Cache(4)
        l1.insert(1, SHARED)
        victim = l1.insert(5, MODIFIED)  # 5 & 3 == 1 & 3
        assert victim == (1, SHARED)
        assert l1.state_of(1) == INVALID
        assert l1.state_of(5) == MODIFIED

    def test_victim_for(self):
        l1 = L1Cache(4)
        assert l1.victim_for(2) is None
        l1.insert(2, EXCLUSIVE)
        assert l1.victim_for(2) is None          # same block, no victim
        assert l1.victim_for(6) == (2, EXCLUSIVE)

    def test_set_state_and_remove(self):
        l1 = L1Cache(4)
        l1.insert(3, SHARED)
        l1.set_state(3, MODIFIED)
        assert l1.state_of(3) == MODIFIED
        l1.set_state(3, INVALID)
        assert not l1.contains(3)

    def test_set_state_ignores_absent(self):
        l1 = L1Cache(4)
        l1.set_state(9, MODIFIED)  # no-op, no crash
        assert not l1.contains(9)

    def test_invalidate_returns_prior_state(self):
        l1 = L1Cache(4)
        l1.insert(1, OWNED)
        assert l1.invalidate(1) == OWNED
        assert l1.invalidate(1) == INVALID

    def test_downgrade_to_shared(self):
        l1 = L1Cache(4)
        l1.insert(1, MODIFIED)
        assert l1.downgrade_to_shared(1) is True   # was dirty
        assert l1.state_of(1) == SHARED
        assert l1.downgrade_to_shared(1) is False  # now clean
        assert l1.downgrade_to_shared(99) is False

    def test_resident_blocks(self):
        l1 = L1Cache(4)
        l1.insert(0, SHARED)
        l1.insert(5, SHARED)
        assert sorted(l1.resident_blocks()) == [0, 5]
        assert len(l1) == 2

    def test_cannot_insert_invalid(self):
        with pytest.raises(ConfigurationError):
            L1Cache(4).insert(0, INVALID)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            L1Cache(0)
        with pytest.raises(ConfigurationError):
            L1Cache(3)

    def test_has_dirty(self):
        l1 = L1Cache(4)
        l1.insert(0, MODIFIED)
        l1.insert(1, SHARED)
        assert l1.has_dirty(0)
        assert not l1.has_dirty(1)


class TestBlockCache:
    def test_lookup_miss(self):
        assert BlockCache(4).lookup(0) is None

    def test_insert_and_lookup(self):
        bc = BlockCache(4)
        bc.insert(9, writable=False)
        line = bc.lookup(9)
        assert line is not None
        assert line.block == 9
        assert not line.writable
        assert not line.dirty

    def test_conflict_eviction(self):
        bc = BlockCache(4)
        bc.insert(1, writable=True)
        victim = bc.insert(5, writable=False)
        assert victim is not None and victim.block == 1 and victim.writable
        assert bc.lookup(1) is None

    def test_mark_dirty(self):
        bc = BlockCache(4)
        bc.insert(2, writable=False)
        bc.mark_dirty(2)
        line = bc.lookup(2)
        assert line.dirty and line.writable

    def test_mark_dirty_absent_is_noop(self):
        BlockCache(4).mark_dirty(7)

    def test_invalidate(self):
        bc = BlockCache(4)
        bc.insert(2, writable=True)
        line = bc.invalidate(2)
        assert line.block == 2
        assert bc.invalidate(2) is None
        assert bc.lookup(2) is None

    def test_zero_capacity(self):
        bc = BlockCache(0)
        assert bc.insert(1, writable=False) is None
        assert bc.lookup(1) is None
        assert bc.victim_for(1) is None

    def test_infinite_cache_never_evicts(self):
        bc = BlockCache.infinite_cache()
        assert bc.is_infinite
        for b in range(1000):
            assert bc.insert(b, writable=False) is None
        assert all(bc.lookup(b) is not None for b in range(1000))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BlockCache(6)

    @pytest.mark.parametrize(
        "make, kept",
        [
            (BlockCache.infinite_cache, [1, 2, 5, 9]),
            (lambda: BlockCache(0), []),
            (lambda: BlockCache(4), [2, 9]),
        ],
        ids=["infinite", "zero-frame", "finite"],
    )
    def test_columns_answer_like_the_probes(self, make, kept):
        """The miss path reads and writes the columns inline; on every
        geometry they must say what the probe methods say."""
        bc = make()
        mask, blocks, writable, dirty = bc.mask, bc.block_at, bc.writable_at, bc.dirty_at

        def flags(b):
            i = b & mask
            return writable[i] | (dirty[i] << 1) if blocks[i] == b else -1

        def victim(b):
            i = b & mask
            resident = blocks[i]
            if resident == EMPTY or resident == b:
                return -1
            return (resident << 2) | writable[i] | (dirty[i] << 1)

        def agree():
            for b in range(12):
                assert flags(b) == bc.probe(b)
                assert victim(b) == bc.victim_probe(b)

        for b, w in ((1, 0), (5, 1), (2, 1), (9, 0)):
            # A fill as the miss path writes it.
            i = b & mask
            blocks[i] = b
            writable[i] = w
            dirty[i] = w
            agree()
        assert sorted(bc.resident_blocks()) == kept
        bc.mark_dirty(9)
        bc.downgrade(2)
        agree()
        for b in range(12):
            held = flags(b)
            assert bc.invalidate_probe(b) == held
            assert flags(b) == -1
        assert len(bc) == 0

    def test_lines_of_page(self):
        bc = BlockCache(8)
        bc.insert(0, writable=False)
        bc.insert(3, writable=False)
        lines = bc.lines_of_page(range(0, 8))
        assert sorted(l.block for l in lines) == [0, 3]


class TestPageCache:
    def test_insert_and_contains(self):
        pc = PageCache(2)
        pc.insert(10)
        assert 10 in pc
        assert len(pc) == 1
        assert pc.has_free_frame

    def test_victim_is_least_recently_missed(self):
        pc = PageCache(2)
        pc.insert(1)
        pc.insert(2)
        assert pc.victim() == 1
        pc.touch_miss(1)  # 1 missed recently, so 2 is now LRM
        assert pc.victim() == 2

    def test_touch_miss_reorders_only_on_miss(self):
        # The LRM policy never reorders on hits, so the caller simply
        # does not invoke touch_miss for hits; victim order is stable.
        pc = PageCache(3)
        for p in (1, 2, 3):
            pc.insert(p)
        assert pc.resident_pages() == [1, 2, 3]
        pc.touch_miss(2)
        assert pc.resident_pages() == [1, 3, 2]

    def test_no_victim_when_free(self):
        pc = PageCache(2)
        pc.insert(1)
        assert pc.victim() is None

    def test_evict(self):
        pc = PageCache(1)
        pc.insert(4)
        pc.evict(4)
        assert 4 not in pc

    def test_insert_past_capacity_raises(self):
        pc = PageCache(1)
        pc.insert(1)
        with pytest.raises(ProtocolError):
            pc.insert(2)

    def test_double_insert_raises(self):
        pc = PageCache(2)
        pc.insert(1)
        with pytest.raises(ProtocolError):
            pc.insert(1)

    def test_evict_absent_raises(self):
        with pytest.raises(ProtocolError):
            PageCache(2).evict(9)

    def test_touch_absent_raises(self):
        with pytest.raises(ProtocolError):
            PageCache(2).touch_miss(9)

    def test_zero_capacity(self):
        pc = PageCache(0)
        assert not pc.has_free_frame
        assert pc.victim() is None

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            PageCache(-1)


class TestFineGrainTags:
    def test_unmapped_page_is_invalid(self):
        tags = FineGrainTags(8)
        assert tags.get(3, 0) == BLOCK_INVALID
        assert not tags.is_mapped(3)

    def test_map_and_set(self):
        tags = FineGrainTags(8)
        tags.map_page(3)
        assert tags.get(3, 0) == BLOCK_INVALID  # fresh frame holds nothing
        tags.set(3, 0, BLOCK_READONLY)
        tags.set(3, 5, BLOCK_WRITABLE)
        assert tags.get(3, 0) == BLOCK_READONLY
        assert tags.get(3, 5) == BLOCK_WRITABLE
        assert tags.valid_offsets(3) == [0, 5]
        assert tags.valid_count(3) == 2

    def test_unmap(self):
        tags = FineGrainTags(8)
        tags.map_page(1)
        tags.set(1, 0, BLOCK_READONLY)
        tags.unmap_page(1)
        assert not tags.is_mapped(1)
        assert tags.get(1, 0) == BLOCK_INVALID

    def test_double_map_raises(self):
        tags = FineGrainTags(8)
        tags.map_page(1)
        with pytest.raises(ProtocolError):
            tags.map_page(1)

    def test_set_unmapped_raises(self):
        with pytest.raises(ProtocolError):
            FineGrainTags(8).set(1, 0, BLOCK_READONLY)

    def test_set_bad_state_raises(self):
        tags = FineGrainTags(8)
        tags.map_page(1)
        with pytest.raises(ProtocolError):
            tags.set(1, 0, 42)


class TestArrayBackedLayout:
    """PR-3 invariants: the engine's hot loop reads the raw buffers, so
    their layout and identity are contract, not implementation detail."""

    def test_l1_buffers_are_preallocated_and_stable(self):
        from array import array

        l1 = L1Cache(4)
        blocks, states = l1.block_at, l1.state_at
        assert isinstance(blocks, array) and blocks.typecode == "q"
        assert isinstance(states, bytearray)
        assert list(blocks) == [-1] * 4 and bytes(states) == b"\x00" * 4
        l1.insert(5, MODIFIED)
        l1.invalidate(5)
        # Mutations happen in place: the engine hoists these buffers
        # into locals for a whole run.
        assert l1.block_at is blocks and l1.state_at is states

    def test_l1_empty_set_has_invalid_state(self):
        # The sentinel invariant the inlined hit check relies on:
        # block_at[i] == -1  <=>  state_at[i] == INVALID.
        l1 = L1Cache(4)
        l1.insert(2, MODIFIED)
        l1.invalidate(2)
        assert l1.block_at[2] == -1
        assert l1.state_at[2] == INVALID
        l1.insert(6, OWNED)
        l1.set_state(6, INVALID)
        assert l1.block_at[2] == -1
        assert l1.state_at[2] == INVALID

    def test_l1_len_counts_resident_lines_only(self):
        l1 = L1Cache(8)
        assert len(l1) == 0
        l1.insert(1, SHARED)
        l1.insert(9, MODIFIED)  # evicts 1 (same set)
        l1.insert(2, SHARED)
        assert len(l1) == 2

    def test_finegrain_tags_reject_out_of_range_offsets(self):
        tags = FineGrainTags(8)
        tags.map_page(1)
        with pytest.raises(IndexError):
            tags.set(1, 8, BLOCK_READONLY)
        with pytest.raises(IndexError):
            tags.get(1, 8)

    def test_finegrain_valid_count_after_mixed_ops(self):
        tags = FineGrainTags(4)
        tags.map_page(7)
        for off in range(4):
            tags.set(7, off, BLOCK_WRITABLE)
        tags.set(7, 1, BLOCK_INVALID)
        assert tags.valid_count(7) == 3
        assert tags.valid_offsets(7) == [0, 2, 3]
