"""Structure-level differential tests: columnar layouts vs the frozen
pre-columnar transcriptions in :mod:`repro.sim.legacy`.

The columnar rewrite (array-backed block cache, intrusive-list page
cache) claims to be *observationally identical* to the set/dict/object
structures it replaced — same probe results, same victims, same
replacement order, same errors — under any operation stream.  These tests drive both
implementations with the same random streams and compare every
observable after every step.  (The packed-bitmask directory has its own
differential in ``test_directory_properties.py``; the engine-level
differential across ccnuma/scoma/rnuma/ideal is
``test_runahead_differential.py``, where the fast engine runs the
columnar structures against the frozen reference engine end to end.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.block_cache import BlockCache
from repro.caches.page_cache import PageCache
from repro.common.errors import ProtocolError
from repro.sim.legacy import LegacyBlockCache, LegacyPageCache

# ----------------------------------------------------------------------
# block cache
# ----------------------------------------------------------------------

bc_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert_ro", "insert_w", "invalidate", "mark_dirty", "downgrade"]
        ),
        st.integers(min_value=0, max_value=63),  # block (16 frames -> conflicts)
    ),
    max_size=200,
)


def _line_tuple(line):
    if line is None:
        return None
    return (line.block, bool(line.writable), bool(line.dirty))


def _probe_tuple(cache, block):
    flags = cache.probe(block)
    if flags < 0:
        return None
    return (block, bool(flags & 1), bool(flags & 2))


@given(ops=bc_ops, geometry=st.sampled_from([0, 1, 4, 16, "inf"]))
@settings(max_examples=200, deadline=None)
def test_block_cache_matches_frozen_oracle(ops, geometry):
    if geometry == "inf":
        new, old = BlockCache.infinite_cache(), LegacyBlockCache.infinite_cache()
    else:
        new, old = BlockCache(geometry), LegacyBlockCache(geometry)
    for op, block in ops:
        if op == "insert_ro" or op == "insert_w":
            w = op == "insert_w"
            assert _line_tuple(new.insert(block, w)) == _line_tuple(
                old.insert(block, w)
            )
        elif op == "invalidate":
            assert _line_tuple(new.invalidate(block)) == _line_tuple(
                old.invalidate(block)
            )
        elif op == "mark_dirty":
            new.mark_dirty(block)
            old.mark_dirty(block)
        else:
            # downgrade is new-API; the legacy engine mutated the line
            # object in place — emulate that on the oracle.
            new.downgrade(block)
            line = old.lookup(block)
            if line is not None:
                line.dirty = False
                line.writable = False
        # Observables after every step.
        assert _probe_tuple(new, block) == _line_tuple(old.lookup(block))
        assert _line_tuple(new.victim_for(block)) == _line_tuple(
            old.victim_for(block)
        )
        assert len(new) == len(old)
        assert sorted(new.resident_blocks()) == sorted(old.resident_blocks())


@given(ops=bc_ops)
@settings(max_examples=100, deadline=None)
def test_block_cache_packed_probes_agree_with_snapshots(ops):
    cache = BlockCache(8)
    for op, block in ops:
        if op.startswith("insert"):
            cache.insert(block, op == "insert_w")
        elif op == "invalidate":
            cache.invalidate(block)
        elif op == "mark_dirty":
            cache.mark_dirty(block)
        else:
            cache.downgrade(block)
        # probe() and lookup() are two views of the same columns.
        snap = cache.lookup(block)
        assert _probe_tuple(cache, block) == _line_tuple(snap)
        packed = cache.victim_probe(block)
        victim = cache.victim_for(block)
        if victim is None:
            assert packed == -1
        else:
            assert packed >> 2 == victim.block
            assert bool(packed & 1) == victim.writable
            assert bool(packed & 2) == victim.dirty


# ----------------------------------------------------------------------
# page cache (replacement order is the load-bearing observable)
# ----------------------------------------------------------------------

pc_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "evict", "touch_miss", "touch_hit", "victim"]),
        st.integers(min_value=0, max_value=11),  # page
    ),
    max_size=200,
)


@given(
    ops=pc_ops,
    capacity=st.integers(min_value=0, max_value=6),
    policy=st.sampled_from(["lrm", "lru", "fifo"]),
)
@settings(max_examples=200, deadline=None)
def test_page_cache_matches_frozen_oracle(ops, capacity, policy):
    new = PageCache(capacity, policy=policy)
    old = LegacyPageCache(capacity, policy=policy)
    for op, page in ops:
        if op == "insert":
            if page in old or len(old) >= capacity:
                with pytest.raises(ProtocolError):
                    new.insert(page)
                continue
            new.insert(page)
            old.insert(page)
        elif op == "evict":
            if page not in old:
                with pytest.raises(ProtocolError):
                    new.evict(page)
                continue
            new.evict(page)
            old.evict(page)
        elif op == "touch_miss":
            if page not in old:
                with pytest.raises(ProtocolError):
                    new.touch_miss(page)
                continue
            new.touch_miss(page)
            old.touch_miss(page)
        elif op == "touch_hit":
            new.touch_hit(page)
            old.touch_hit(page)
        else:
            assert new.victim() == old.victim()
        # The full replacement order must match, not just the victim.
        assert new.resident_pages() == old.resident_pages()
        assert len(new) == len(old)
        assert new.has_free_frame == old.has_free_frame
        assert (page in new) == (page in old)
