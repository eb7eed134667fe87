"""Differential property tests for the scalable directory representations.

The limited-pointer and coarse-vector directories are pinned to the
exact full map by an equivalence contract rather than by transcription:

- *exact below capacity*: while a block's sharer set fits what the
  representation can encode, every packed outcome and every column of
  state is bit-identical to the full map — and with the capacity levers
  maxed out (``pointers >= nodes``, ``region_size == 1``) that holds
  for arbitrary streams, all the way up through whole-engine runs;
- *conservative above capacity*: once the set overflows, the only
  permitted error is **over**-invalidation.  An independent true-holder
  model (which honors every invalidation each outcome reports) checks
  that the believed sharer mask never drops a real holder and that
  every write's invalidation fan-out covers every real holder;
- *self-checking*: ``check()`` passes after every reachable transition
  and rejects hand-corrupted states for each representation's own
  invariants (pointer-count bounds, region alignment, owner placement).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.coherence.directory import (
    CoarseVectorDirectory,
    Directory,
    LimitedPointerDirectory,
    bits_of,
    make_directory,
    out_inval_mask,
)
from repro.common.errors import ProtocolError
from repro.common.params import DirectoryParams
from repro.sim.engine import simulate

from tests.conftest import tiny_config
from tests.property.test_runahead_differential import (
    assert_identical_results,
    programs,
)

NODES = 8
BLOCKS = 6
PROTOCOLS = ("ccnuma", "scoma", "rnuma", "ideal")

OPS = ("read", "write", "upgrade", "writeback", "flush", "home_read", "home_write")


def op_streams(max_node=NODES - 1):
    return st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(min_value=0, max_value=BLOCKS - 1),
            st.integers(min_value=0, max_value=max_node),
        ),
        max_size=250,
    )


def _apply(d, op, block, node):
    """Drive one request; returns the packed outcome (None for notifies)."""
    if op == "read":
        return d.read_request(block, node)
    if op == "write":
        return d.write_request(block, node)
    if op == "upgrade":
        return d.write_request(block, node, upgrade=True)
    if op == "writeback":
        if block in d:
            d.writeback(block, node)
        return None
    if op == "flush":
        d.flush(block, node)
        return None
    if op == "home_read":
        return d.home_read_access(block, node)
    return d.home_write_access(block, node)


def _assert_same_state(a, b, block):
    assert a.owner_of(block) == b.owner_of(block)
    assert a.sharers_mask(block) == b.sharers_mask(block)
    assert a.was_held_mask(block) == b.was_held_mask(block)


class TestExactEquivalence:
    """Capacity levers maxed out: bit-identical to the full map."""

    @given(ops=op_streams())
    @settings(max_examples=150, deadline=None)
    def test_limited_with_enough_pointers(self, ops):
        for overflow in ("broadcast", "evict"):
            full = Directory()
            rep = LimitedPointerDirectory(NODES, pointers=NODES, overflow=overflow)
            for op, block, node in ops:
                assert _apply(rep, op, block, node) == _apply(full, op, block, node)
                _assert_same_state(rep, full, block)
                rep.check(block)

    @given(ops=op_streams())
    @settings(max_examples=150, deadline=None)
    def test_coarse_with_singleton_regions(self, ops):
        full = Directory()
        rep = CoarseVectorDirectory(NODES, region_size=1)
        for op, block, node in ops:
            assert _apply(rep, op, block, node) == _apply(full, op, block, node)
            _assert_same_state(rep, full, block)
            rep.check(block)

    @given(ops=op_streams(max_node=2))
    @settings(max_examples=150, deadline=None)
    def test_limited_below_capacity(self, ops):
        """Streams whose sharer sets fit the pointers never overflow:
        both overflow policies behave exactly like the full map."""
        for overflow in ("broadcast", "evict"):
            full = Directory()
            rep = LimitedPointerDirectory(NODES, pointers=3, overflow=overflow)
            for op, block, node in ops:
                assert _apply(rep, op, block, node) == _apply(full, op, block, node)
                _assert_same_state(rep, full, block)
                rep.check(block)


def _representations_under_test():
    return (
        LimitedPointerDirectory(NODES, pointers=2, overflow="broadcast"),
        LimitedPointerDirectory(NODES, pointers=2, overflow="evict"),
        LimitedPointerDirectory(NODES, pointers=1, overflow="evict"),
        CoarseVectorDirectory(NODES, region_size=4),
        CoarseVectorDirectory(NODES, region_size=3),  # ragged last region
    )


class TestConservativeOverflow:
    """Above capacity, over-invalidation is the only allowed error."""

    @given(ops=op_streams())
    @settings(max_examples=200, deadline=None)
    def test_never_under_invalidates(self, ops):
        for rep in _representations_under_test():
            full = Directory()
            # block -> nodes that really hold a copy if every reported
            # invalidation is honored (the engine honors all of them).
            holders = {b: set() for b in range(BLOCKS)}
            for op, block, node in ops:
                out = _apply(rep, op, block, node)
                full_out = _apply(full, op, block, node)
                rep.check(block)
                live = holders[block]
                if op == "read":
                    victims = set(bits_of(out_inval_mask(out)))
                    # A read may only displace currently-believed
                    # holders (limited-evict), never the requester.
                    assert victims <= live - {node}
                    live -= victims
                    live.add(node)
                elif op in ("write", "upgrade"):
                    # The fan-out must cover every real holder: nobody
                    # keeps a stale copy past an ownership grant.
                    assert set(bits_of(out_inval_mask(out))) >= live - {node}
                    live.clear()
                    live.add(node)
                elif op == "home_write":
                    assert set(bits_of(out_inval_mask(out))) >= live - {node}
                    live.clear()
                elif op == "flush":
                    live.discard(node)
                # Conservative superset: the believed mask never drops
                # a real holder, and is itself at least as pessimistic
                # as nothing — while the exact columns stay exact.
                if block in rep:
                    assert set(bits_of(rep.sharers_mask(block))) >= live
                # The owner pointer stays exact in every representation.
                assert rep.owner_of(block) == full.owner_of(block)

    @given(ops=op_streams())
    @settings(max_examples=150, deadline=None)
    def test_broadcast_and_coarse_masks_cover_the_full_map(self, ops):
        """Broadcast-limited and coarse never *forget* a believed
        sharer the full map still lists (eviction legitimately does —
        it invalidates the victim instead)."""
        reps = (
            LimitedPointerDirectory(NODES, pointers=2, overflow="broadcast"),
            CoarseVectorDirectory(NODES, region_size=4),
        )
        for rep in reps:
            full = Directory()
            for op, block, node in ops:
                _apply(rep, op, block, node)
                _apply(full, op, block, node)
                full_mask = full.sharers_mask(block)
                assert rep.sharers_mask(block) & full_mask == full_mask
                rep.check(block)


SHARED_BLOCKS = 64


def _sharer_heavy_stream(nodes):
    """(op, block, node): a quarter of the machine reads each block,
    spread across it, then one node writes and half the readers come
    back; odd rounds end with a flush.  Deterministic, and the worst
    case for every inexact representation."""
    readers = max(2, nodes // 4)
    stride = max(1, nodes // readers)
    stream = []
    for r in range(4):
        for block in range(SHARED_BLOCKS):
            for k in range(readers):
                stream.append(("read", block, (k * stride + r + block) % nodes))
            stream.append(("write", block, (r + block) % nodes))
            for k in range(readers // 2):
                stream.append(("read", block, (k * stride + r + block) % nodes))
            if r % 2:
                stream.append(("flush", block, (r + block) % nodes))
    return stream


@pytest.mark.parametrize("nodes", (64, 256, 1024))
def test_sharer_heavy_stream_on_large_machines(nodes):
    """The contract beyond the 8-node hypothesis streams: the
    capacity-equivalent parameterizations report exactly the full
    map's invalidations, the inexact ones at least as many (saturated
    broadcast strictly more), and every entry passes check()."""
    reps = {
        "fullmap": Directory(),
        "limited-exact": LimitedPointerDirectory(nodes, nodes, "broadcast"),
        "coarse-exact": CoarseVectorDirectory(nodes, 1),
        "limited-bcast": LimitedPointerDirectory(nodes, 4, "broadcast"),
        "limited-evict": LimitedPointerDirectory(nodes, 4, "evict"),
        "coarse-4": CoarseVectorDirectory(nodes, 4),
    }
    stream = _sharer_heavy_stream(nodes)
    invals = dict.fromkeys(reps, 0)
    for name, rep in reps.items():
        for op, block, node in stream:
            out = _apply(rep, op, block, node)
            if out is not None:
                invals[name] += out_inval_mask(out).bit_count()
        for block in range(SHARED_BLOCKS):
            rep.check(block)
    base = invals["fullmap"]
    assert invals["limited-exact"] == invals["coarse-exact"] == base
    for name in ("limited-bcast", "limited-evict", "coarse-4"):
        assert invals[name] >= base, name
    assert invals["limited-bcast"] > base


class TestCheckCatchesCorruption:
    def test_fullmap_owner_outside_sharers(self):
        d = Directory()
        d.write_request(0, 2)
        s = d.slots[0]
        d.sharer_masks[s] = 0b10  # owner 2 no longer listed
        with pytest.raises(ProtocolError):
            d.check(0)

    def test_limited_pointer_count_bound(self):
        d = LimitedPointerDirectory(NODES, pointers=2)
        d.read_request(0, 0)
        s = d.slots[0]
        d.sharer_masks[s] = 0b111  # three sharers, two pointers, no mode
        with pytest.raises(ProtocolError):
            d.check(0)

    def test_limited_saturated_entry_must_list_everyone(self):
        d = LimitedPointerDirectory(NODES, pointers=2)
        for n in range(3):
            d.read_request(0, n)  # overflows into broadcast mode
        s = d.slots[0]
        assert d.sharer_masks[s] == d.all_mask
        d.sharer_masks[s] &= ~1
        with pytest.raises(ProtocolError):
            d.check(0)

    def test_limited_held_outside_sharers(self):
        d = LimitedPointerDirectory(NODES, pointers=2, overflow="evict")
        d.read_request(0, 1)
        s = d.slots[0]
        d.held_masks[s] |= 0b100
        with pytest.raises(ProtocolError):
            d.check(0)

    def test_coarse_region_alignment(self):
        d = CoarseVectorDirectory(NODES, region_size=4)
        d.read_request(0, 5)
        s = d.slots[0]
        d.sharer_masks[s] |= 1  # lone bit from another region
        with pytest.raises(ProtocolError):
            d.check(0)

    def test_coarse_owner_must_hold_exactly_its_region(self):
        d = CoarseVectorDirectory(NODES, region_size=4)
        d.write_request(0, 5)
        s = d.slots[0]
        d.sharer_masks[s] = d.region_masks[0]  # wrong region
        with pytest.raises(ProtocolError):
            d.check(0)

    def test_stray_bits_beyond_node_count(self):
        for d in (
            LimitedPointerDirectory(4, pointers=4),
            CoarseVectorDirectory(4, region_size=2),
        ):
            d.read_request(0, 1)
            d.sharer_masks[d.slots[0]] |= 1 << 9
            with pytest.raises(ProtocolError):
                d.check(0)


class TestFactory:
    def test_default_and_none_build_the_exact_full_map(self):
        assert type(make_directory(None, 8)) is Directory
        assert type(make_directory(DirectoryParams(), 8)) is Directory

    def test_knobs_reach_the_representation(self):
        d = make_directory(
            DirectoryParams(representation="limited", pointers=6, overflow="evict"),
            16,
        )
        assert isinstance(d, LimitedPointerDirectory)
        assert (d.nodes, d.pointers, d.evict_on_overflow) == (16, 6, True)
        c = make_directory(
            DirectoryParams(representation="coarse", region_size=8), 16
        )
        assert isinstance(c, CoarseVectorDirectory)
        assert (c.nodes, c.region_size) == (16, 8)


EXACT_PARAMS = (
    DirectoryParams(representation="limited", pointers=64, overflow="broadcast"),
    DirectoryParams(representation="limited", pointers=64, overflow="evict"),
    DirectoryParams(representation="coarse", region_size=1),
)

INEXACT_PARAMS = (
    DirectoryParams(representation="limited", pointers=1, overflow="broadcast"),
    DirectoryParams(representation="limited", pointers=1, overflow="evict"),
    DirectoryParams(representation="coarse", region_size=2),
)


class TestEngineLevel:
    @given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
    @settings(max_examples=60, deadline=None)
    def test_exact_parameters_are_bit_identical_end_to_end(self, traces, protocol):
        """A whole simulation — timing, every counter, page sharing —
        must not notice an exact-capacity representation swap."""
        base = simulate(tiny_config(protocol), [list(t) for t in traces])
        for params in EXACT_PARAMS:
            config = tiny_config(protocol, directory=params)
            assert_identical_results(
                simulate(config, [list(t) for t in traces]), base
            )

    @given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
    @settings(max_examples=40, deadline=None)
    def test_exact_parameters_match_the_reference_engine(self, traces, protocol):
        """The reference engine always simulates the full-map oracle,
        so exact-capacity configs must agree with it too."""
        for params in EXACT_PARAMS[:1]:
            config = tiny_config(protocol, directory=params)
            assert_identical_results(
                simulate(config, [list(t) for t in traces]),
                simulate(config, [list(t) for t in traces], engine="reference"),
            )

    @given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
    @settings(max_examples=60, deadline=None)
    def test_inexact_runs_are_deterministic_and_self_consistent(
        self, traces, protocol
    ):
        """Overflowing representations still produce reproducible runs,
        and every directory entry they leave behind passes check()."""
        for params in INEXACT_PARAMS:
            config = tiny_config(protocol, directory=params)
            a = simulate(config, [list(t) for t in traces])
            b = simulate(config, [list(t) for t in traces])
            assert_identical_results(a, b)

    def test_inexact_reps_on_an_app_program(self):
        """End-to-end on a real workload: runs complete, the final
        directory states validate, and inexact representations send at
        least as many invalidations as the exact full map."""
        from dataclasses import replace

        from repro.common.params import base_ccnuma_config
        from repro.sim.engine import SimulationEngine
        from repro.workloads.registry import build_program

        program = build_program("em3d", scale=0.05)
        base = simulate(base_ccnuma_config(), program)
        base_invals = base.stats.total("invalidations_sent")
        for params in INEXACT_PARAMS:
            config = replace(base_ccnuma_config(), directory=params)
            engine = SimulationEngine(config, program)
            result = engine.run()
            directory = engine.machine.directory
            for block in directory.slots:
                directory.check(block)
            if params.representation != "limited" or params.overflow != "evict":
                # Broadcast and coarse masks dominate the full map's,
                # so their write fan-outs can only be larger.  (Evict
                # trades write-time invalidations for read-time ones;
                # no per-run inequality holds.)
                assert (
                    result.stats.total("invalidations_sent") >= base_invals
                )
