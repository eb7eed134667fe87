"""Property-based tests for OS page services and fine-grain tags."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.finegrain import (
    BLOCK_INVALID,
    BLOCK_READONLY,
    BLOCK_WRITABLE,
    FineGrainTags,
)
from repro.machine.machine import Machine
from repro.osint.services import allocate_scoma_page, replace_scoma_page
from repro.vm.page_table import MAP_SCOMA, MAP_UNMAPPED

from tests.conftest import tiny_config


@given(
    pages=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60)
)
@settings(max_examples=100, deadline=None)
def test_allocation_stream_preserves_node_invariants(pages):
    """Any allocate/replace sequence keeps the page cache, tags and
    page table mutually consistent."""
    machine = Machine(tiny_config("scoma"))
    node = machine.nodes[0]
    for page in pages:
        if page in node.page_cache:
            continue
        allocate_scoma_page(machine, node, page)
        assert len(node.page_cache) <= node.page_cache.capacity
        for resident in node.page_cache.resident_pages():
            assert node.tags.is_mapped(resident)
            assert node.page_table.mapping_of(resident) == MAP_SCOMA
        # Non-resident pages are fully unmapped.
        assert len(node.page_table.pages_mapped(MAP_SCOMA)) == len(node.page_cache)


@given(
    pages=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20),
    evict_at=st.integers(min_value=0, max_value=19),
)
@settings(max_examples=100, deadline=None)
def test_replacement_is_always_clean(pages, evict_at):
    machine = Machine(tiny_config("scoma"))
    node = machine.nodes[0]
    inserted = []
    for i, page in enumerate(pages):
        if page not in node.page_cache:
            allocate_scoma_page(machine, node, page)
            inserted.append(page)
        if i == evict_at and node.page_cache.resident_pages():
            victim = node.page_cache.resident_pages()[0]
            replace_scoma_page(machine, node, victim)
            assert victim not in node.page_cache
            assert not node.tags.is_mapped(victim)
            assert node.page_table.mapping_of(victim) == MAP_UNMAPPED


tag_ops = st.lists(
    st.tuples(
        st.sampled_from(["set_ro", "set_w", "invalidate"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=100,
)


@given(ops=tag_ops)
@settings(max_examples=150, deadline=None)
def test_finegrain_tags_match_reference(ops):
    tags = FineGrainTags(8)
    tags.map_page(0)
    state = {}
    for op, off in ops:
        if op == "set_ro":
            tags.set(0, off, BLOCK_READONLY)
            state[off] = BLOCK_READONLY
        elif op == "set_w":
            tags.set(0, off, BLOCK_WRITABLE)
            state[off] = BLOCK_WRITABLE
        else:
            tags.set(0, off, BLOCK_INVALID)
            state.pop(off, None)
        for o in range(8):
            assert tags.get(0, o) == state.get(o, BLOCK_INVALID)
        assert tags.valid_offsets(0) == sorted(state)
