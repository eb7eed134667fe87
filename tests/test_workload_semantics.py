"""Algorithmic-validity tests for the workload kernels: do the traces
actually encode the computation structure each kernel claims?"""

import hashlib
import json
from collections import defaultdict

import pytest

from repro.common.addressing import AddressSpace
from repro.common.params import MachineParams
from repro.common.records import Access, Barrier
from repro.workloads.apps import fft, lu, radix

MACHINE = MachineParams()
SPACE = AddressSpace()


def split_phases(trace):
    """Split one CPU's trace into access lists between barriers."""
    phases = [[]]
    for item in trace:
        if isinstance(item, Barrier):
            phases.append([])
        else:
            phases[-1].append(item)
    return phases


class TestRadixSemantics:
    def test_scatter_writes_form_a_permutation(self):
        """Every destination slot is written exactly once across CPUs."""
        prog = radix.build(MACHINE, SPACE, scale=0.25)
        n = prog.metadata["keys"]
        key_bytes = radix.KEY_BYTES
        # The dest region is the second region: starts after src pages.
        src_pages = (n * key_bytes + SPACE.page_size - 1) // SPACE.page_size
        dst_base = src_pages * SPACE.page_size
        writes = defaultdict(int)
        for trace in prog.traces:
            phases = split_phases(trace)
            # Permutation phase is the last phase with writes to dst.
            for item in phases[-2]:
                if item.is_write and dst_base <= item.addr < dst_base + n * key_bytes:
                    writes[item.addr] += 1
        assert len(writes) == n
        assert all(count == 1 for count in writes.values())

    def test_histogram_read_by_every_cpu(self):
        prog = radix.build(MACHINE, SPACE, scale=0.25)
        n = prog.metadata["keys"]
        key_bytes = radix.KEY_BYTES
        pages_per_array = (n * key_bytes + SPACE.page_size - 1) // SPACE.page_size
        hist_base = 2 * pages_per_array * SPACE.page_size
        for cpu, trace in enumerate(prog.traces):
            hist_reads = sum(
                1
                for item in trace
                if isinstance(item, Access)
                and not item.is_write
                and item.addr >= hist_base
            )
            assert hist_reads > 0, f"cpu {cpu} skipped the prefix phase"


#: Seeds for the NumPy cross-check: small, at 32-bit word boundaries,
#: and longer than the four words SeedSequence's pool holds (it mixes
#: any further words in afterwards).
CROSS_CHECK_SEEDS = [
    0, 1, 2, 3, 7, 42, 99, 255, 256, 2**31 - 1, 2**31, 2**32 - 1, 2**32,
    2**32 + 5, 2**63, 2**64 - 1, 2**64, 2**70 + 3, 2**96 + 11, 2**127 + 1,
    2**128 + 7, 2**160 - 1, 12345678901234567890, 3141592653, 27182818,
    2**200 + 99,
]


class TestRadixKeyStream:
    """radix's keys are NumPy's ``default_rng(seed).integers(0, 256, n)``
    stream, ported to the standard library, and its ranks are a stable
    sort's; both feed every frozen radix result."""

    @pytest.mark.parametrize("seed", CROSS_CHECK_SEEDS)
    def test_digits_and_ranks_equal_numpys(self, seed):
        np = pytest.importorskip("numpy")
        for n in (1, 2, 3, 1024, 10241):
            rng = np.random.default_rng(seed)
            want = rng.integers(0, radix.RADIX, n, dtype=np.int64)
            digits = radix._digits(seed, n)
            assert digits == want.tolist(), (seed, n)
            ranks = np.empty(n, dtype=np.int64)
            ranks[np.argsort(want, kind="stable")] = np.arange(n)
            assert radix._stable_ranks(digits) == ranks.tolist(), (seed, n)

    def test_the_stream_is_pinned_without_numpy(self):
        """Values taken from NumPy's generator, so a machine without
        NumPy still checks the stream."""
        assert radix._digits(99, 8) == [245, 129, 193, 144, 45, 131, 241, 248]
        prog = radix.build(MACHINE, SPACE, scale=0.05)
        columns = json.dumps([column.tolist() for column in prog.columns])
        assert hashlib.sha256(columns.encode()).hexdigest() == (
            "16dc851b443fa123c6232c5715fcb79aeefd1b4bc96170f54e94c1d760c8428e"
        )

    def test_a_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            radix._digits(-1, 4)
        with pytest.raises(ValueError, match="non-negative"):
            radix.build(MACHINE, SPACE, scale=0.05, seed=-99)


class TestFftSemantics:
    def test_transpose_reads_each_source_block_once_per_cpu(self):
        """The cache-blocked transpose must not re-read source blocks —
        that is what makes fft refetch-free (Figure 5 omits it)."""
        prog = fft.build(MACHINE, SPACE, scale=1.0)
        for cpu, trace in enumerate(prog.traces):
            phases = split_phases(trace)
            # Phase 1 (after init barrier) is the first transpose.
            reads = [
                SPACE.block_of(i.addr)
                for i in phases[1]
                if isinstance(i, Access) and not i.is_write
            ]
            assert len(reads) == len(set(reads)), f"cpu {cpu} re-reads source"

    def test_every_point_written_during_transpose(self):
        prog = fft.build(MACHINE, SPACE, scale=1.0)
        m = int(prog.metadata["points"] ** 0.5)
        writes = set()
        for trace in prog.traces:
            for item in split_phases(trace)[1]:
                if item.is_write:
                    writes.add(SPACE.block_of(item.addr))
        # One write per destination block of B.
        row_bytes = m * fft.ELEM_BYTES
        assert len(writes) == m * row_bytes // SPACE.block_size


class TestLuSemantics:
    def test_elimination_order(self):
        """Block (i, j) is last written during step min(i, j): perim
        blocks freeze after their pivot step."""
        prog = lu.build(MACHINE, SPACE, scale=0.25)
        grid = prog.metadata["grid"]
        n = grid * lu.BLOCK_EDGE
        row_bytes = n * lu.ELEM_BYTES

        def block_of_addr(addr):
            row = addr // row_bytes
            col = (addr % row_bytes) // (lu.BLOCK_EDGE * lu.ELEM_BYTES)
            return row // lu.BLOCK_EDGE, col

        # Steps are delimited by 3 barriers each after the init barrier.
        last_write_step = {}
        for trace in prog.traces:
            phases = split_phases(trace)
            for phase_idx, phase in enumerate(phases[1:], start=0):
                step = phase_idx // 3
                for item in phase:
                    if item.is_write:
                        last_write_step[block_of_addr(item.addr)] = max(
                            last_write_step.get(block_of_addr(item.addr), 0), step
                        )
        for (bi, bj), step in last_write_step.items():
            assert step <= min(bi, bj), f"block ({bi},{bj}) written at step {step}"

    def test_row_major_pages_interleave_owners(self):
        """The non-contiguous layout must put multiple owners' segments
        on one page — the source of lu's remote reuse traffic."""
        prog = lu.build(MACHINE, SPACE, scale=0.25)
        page_writers = defaultdict(set)
        for cpu, trace in enumerate(prog.traces):
            for item in trace:
                if isinstance(item, Access) and item.is_write:
                    page_writers[SPACE.page_of(item.addr)].add(cpu)
        sharing = [len(w) for w in page_writers.values()]
        assert max(sharing) >= 4  # pages span many owners
