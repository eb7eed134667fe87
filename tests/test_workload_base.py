"""Unit tests for workload infrastructure (TraceBuilder, Layout,
Program, synthetic streams, registry)."""

import pytest

from repro.common.addressing import AddressSpace
from repro.common.errors import ConfigurationError, TraceError
from repro.common.params import MachineParams
from repro.common.records import Access, Barrier
from repro.workloads.base import Program, TraceBuilder, scaled
from repro.workloads.layout import Layout
from repro.workloads.registry import build_program, clear_cache, workload_names
from repro.workloads import synthetic

SPACE = AddressSpace(block_size=64, page_size=512)
MACHINE = MachineParams(nodes=2, cpus_per_node=2)


class TestTraceBuilder:
    def test_read_write_append(self):
        tb = TraceBuilder(MACHINE)
        tb.read(0, 100, think=5)
        tb.write(3, 200)
        assert tb.traces[0] == [Access(100, False, 5)]
        assert tb.traces[3] == [Access(200, True, 2)]

    def test_barrier_hits_every_cpu(self):
        tb = TraceBuilder(MACHINE)
        ident = tb.barrier()
        assert ident == 0
        assert all(trace == [Barrier(0)] for trace in tb.traces)
        assert tb.barrier() == 1

    def test_first_touch_writes_with_zero_think(self):
        tb = TraceBuilder(MACHINE)
        tb.first_touch(1, [0, 64])
        assert tb.traces[1] == [Access(0, True, 0), Access(64, True, 0)]

    def test_build_requires_a_barrier(self):
        tb = TraceBuilder(MACHINE)
        tb.read(0, 0)
        with pytest.raises(TraceError):
            tb.build("x")

    def test_build_program_metadata(self):
        tb = TraceBuilder(MACHINE)
        tb.read(0, 0)
        tb.barrier()
        prog = tb.build("x", description="d", paper_input="p", scaled_input="s", n=4)
        assert prog.name == "x"
        assert prog.metadata == {"n": 4}
        assert prog.cpu_count == 4
        assert prog.total_accesses == 1
        assert prog.barrier_count == 1


class TestScaled:
    def test_scaling(self):
        assert scaled(100, 1.0) == 100
        assert scaled(100, 0.5) == 50
        assert scaled(100, 0.001, minimum=8) == 8

    def test_rejects_non_positive(self):
        with pytest.raises(TraceError):
            scaled(100, 0)


class TestLayout:
    def test_regions_are_page_aligned_and_disjoint(self):
        layout = Layout(SPACE)
        a = layout.region("a", 100)    # rounds to one page
        b = layout.region("b", 1000)   # rounds to two pages
        assert a.base == 0 and a.size == 512
        assert b.base == 512 and b.size == 1024
        assert layout.total_bytes == 1536

    def test_region_addressing(self):
        layout = Layout(SPACE)
        r = layout.region("r", 1024)
        assert r.addr(0) == r.base
        assert r.elem(3, 64) == r.base + 192
        assert r.block(2) == r.base + 128
        assert r.num_blocks == 16
        assert r.num_pages == 2
        assert list(r.pages()) == [0, 1]
        assert r.page_base_addr(1) == 512

    def test_bounds_checked(self):
        layout = Layout(SPACE)
        r = layout.region("r", 512)
        with pytest.raises(ConfigurationError):
            r.addr(512)
        with pytest.raises(ConfigurationError):
            r.page_base_addr(1)

    def test_duplicate_name_rejected(self):
        layout = Layout(SPACE)
        layout.region("r", 10)
        with pytest.raises(ConfigurationError):
            layout.region("r", 10)

    def test_get_and_list(self):
        layout = Layout(SPACE)
        r = layout.region("r", 10)
        assert layout.get("r") is r
        assert layout.regions() == [r]


class TestSynthetic:
    def test_worst_case_stream_shape(self):
        prog = synthetic.worst_case_for_rnuma(MACHINE, SPACE, threshold=4, pages=2)
        assert prog.cpu_count == 4
        # CPU 0 issues 4 reads per round (2 hot + 2 evictors),
        # threshold//2 + 2 rounds, 2 pages — plus its first-touch writes.
        accesses = [
            i for i in prog.traces[0] if isinstance(i, Access) and not i.is_write
        ]
        assert len(accesses) == 4 * (4 // 2 + 2) * 2

    def test_reuse_stream_alternates_hot_and_evictor(self):
        prog = synthetic.reuse_page_stream(MACHINE, SPACE, repeats=10)
        reads = [
            i for i in prog.traces[0] if isinstance(i, Access) and not i.is_write
        ]
        assert len(reads) == 40
        hot_pages = {SPACE.page_of(a.addr) for a in reads[::2]}
        assert len(hot_pages) == 1  # every other read targets the hot page

    def test_streaming_pages(self):
        prog = synthetic.streaming_pages(MACHINE, SPACE, pages=3)
        accesses = [i for i in prog.traces[0] if isinstance(i, Access)]
        assert len(accesses) == 3 * SPACE.blocks_per_page
        blocks = [SPACE.block_of(a.addr) for a in accesses]
        assert len(set(blocks)) == len(blocks)  # no reuse

    def test_requires_two_nodes(self):
        single = MachineParams(nodes=1, cpus_per_node=1)
        with pytest.raises(ValueError):
            synthetic.reuse_page_stream(single, SPACE)


class TestRegistry:
    def test_names_match_table3(self):
        assert workload_names() == [
            "barnes", "cholesky", "em3d", "fft", "fmm",
            "lu", "moldyn", "ocean", "radix", "raytrace",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_program("linpack")

    def test_cache_returns_same_object(self):
        p1 = build_program("fft", scale=0.1)
        p2 = build_program("fft", scale=0.1)
        assert p1 is p2
        clear_cache()
        p3 = build_program("fft", scale=0.1)
        assert p3 is not p1
