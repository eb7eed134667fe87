"""Engine semantics tests on hand-written traces.

Tiny geometry (see conftest): 2 nodes x 1 CPU, 64-B blocks, 512-B pages
(8 blocks/page), 2-line L1 (set = block & 1), 2-line block cache,
2-frame page cache, relocation threshold 2.

Addresses used below: page 0 starts at 0, page 1 at 512, etc.  Blocks
with equal parity conflict in both the L1 and the block cache.
"""

import pytest

from repro.common.errors import TraceError
from repro.common.records import Access, Barrier
from repro.sim.engine import SimulationEngine, simulate
from repro.vm.page_table import MAP_CC, MAP_SCOMA

from tests.conftest import tiny_config

# Homes: page 0 -> node 0, page 1 -> node 1 (byte 512..1023).
HOMES2 = {0: 0, 1: 1}


def run(config, trace0, trace1=(), homes=None):
    return simulate(config, [list(trace0), list(trace1)], dict(homes or HOMES2))


class TestLocalAccesses:
    def test_read_hit_after_fill(self, cc_tiny):
        r = run(cc_tiny, [Access(0), Access(0)])
        assert r.total("l1_misses") == 1
        assert r.total("l1_hits") == 1
        assert r.total("remote_fetches") == 0
        assert r.total("local_fills") == 1

    def test_write_hit_requires_exclusive(self, cc_tiny):
        # Cold write, then write hit in MODIFIED.
        r = run(cc_tiny, [Access(0, True), Access(0, True)])
        assert r.total("l1_misses") == 1
        assert r.total("l1_hits") == 1

    def test_read_then_write_local_sole_copy_is_silent_upgrade(self, cc_tiny):
        # The read fill grants EXCLUSIVE (no other copies), so the write
        # hits without another bus transaction.
        r = run(cc_tiny, [Access(0), Access(0, True)])
        assert r.total("l1_misses") == 1
        assert r.total("l1_hits") == 1

    def test_l1_conflict_refills_locally(self, cc_tiny):
        # Blocks 0 and 2 share L1 set 0; local pages refill from memory.
        r = run(cc_tiny, [Access(0), Access(128), Access(0)])
        assert r.total("l1_misses") == 3
        assert r.total("remote_fetches") == 0

    def test_local_accesses_have_no_page_fault(self, cc_tiny):
        r = run(cc_tiny, [Access(0)])
        assert r.total("page_faults") == 0


class TestCCNumaRemote:
    def test_first_remote_touch_faults_and_fetches(self, cc_tiny):
        r = run(cc_tiny, [Access(512)])
        assert r.total("page_faults") == 1
        assert r.total("remote_fetches") == 1
        assert r.total("block_cache_misses") == 1
        assert r.total("refetches") == 0

    def test_block_cache_hit_after_l1_conflict(self, cc_tiny):
        # Remote blocks 8 (addr 512) and 10 (addr 640) conflict in the
        # L1 *and* in the block cache... choose 8 and 11 (addr 704):
        # L1 sets 0 and 1, BC sets 0 and 1 — no conflicts; after an L1
        # conflict eviction by another local page block we re-fill from
        # the block cache.  Simplest: two reads of 512 with an
        # intervening local read that evicts it from the tiny L1.
        r = run(cc_tiny, [Access(512), Access(0), Access(512)])
        # 512 -> block 8 (set 0), 0 -> block 0 (set 0): L1 conflict.
        assert r.total("remote_fetches") == 1
        assert r.total("block_cache_hits") == 1
        assert r.total("refetches") == 0

    def test_block_cache_conflict_causes_refetch(self, cc_tiny):
        # Remote blocks 8 (512) and 10 (640) collide in BC set 0 and L1
        # set 0: the third access must re-request from home — a refetch.
        r = run(cc_tiny, [Access(512), Access(640), Access(512)])
        assert r.total("remote_fetches") == 3
        assert r.total("refetches") == 1

    def test_one_fault_per_page_per_node(self, cc_tiny):
        r = run(cc_tiny, [Access(512), Access(576), Access(640)])
        assert r.total("page_faults") == 1

    def test_remote_write_takes_ownership_then_local(self, cc_tiny):
        r = run(cc_tiny, [Access(512, True), Access(512, True)])
        assert r.total("remote_fetches") == 1
        assert r.total("l1_hits") == 1

    def test_dirty_block_cache_eviction_writes_back(self, cc_tiny):
        # Write remote block 8, then fetch conflicting remote block 10:
        # the dirty victim must be written back to the home.
        r = run(cc_tiny, [Access(512, True), Access(640)])
        assert r.total("block_cache_writebacks") == 1

    def test_write_back_then_rerequest_is_refetch(self, cc_tiny):
        r = run(cc_tiny, [Access(512, True), Access(640), Access(512)])
        assert r.total("refetches") == 1


class TestCoherence:
    def test_producer_consumer_is_coherence_not_refetch(self, cc_tiny):
        # Node 0 reads remote block; home (node 1) writes it; node 0
        # re-reads: a coherence miss, never a refetch.
        r = run(
            cc_tiny,
            [Access(512), Barrier(0), Barrier(1), Access(512)],
            [Barrier(0), Access(512, True), Barrier(1)],
        )
        assert r.total("refetches") == 0
        assert r.total("coherence_misses") == 1

    def test_remote_write_invalidates_home_copy(self, cc_tiny):
        # Home reads its own block; remote node writes it; home re-reads.
        r = run(
            cc_tiny,
            [Access(512), Barrier(0), Barrier(1), Access(512)],
            [Barrier(0), Barrier(1)],
            homes={0: 0, 1: 0},  # page 1 homed at node 0
        )
        # trace1 writes nothing here; restructure: node 1 writes page-1
        # block while node 0 (home) holds it.
        r = run(
            cc_tiny,
            [Access(512), Barrier(0), Barrier(1), Access(512)],
            [Barrier(0), Access(512, True), Barrier(1)],
            homes={0: 0, 1: 0},
        )
        assert r.total("coherence_misses") == 1

    def test_dirty_remote_copy_recalled_on_home_read(self, cc_tiny):
        # Node 0 writes a block of node 1's page; node 1 then reads it.
        r = run(
            cc_tiny,
            [Access(512, True), Barrier(0), Barrier(1)],
            [Barrier(0), Access(512), Barrier(1)],
        )
        # The home read must recall the dirty copy (a remote fetch by
        # node 1 even though the page is local to it).
        assert r.stats.node(1).remote_fetches == 1


class TestSComa:
    def test_fault_allocates_frame(self, scoma_tiny):
        r = run(scoma_tiny, [Access(512)])
        assert r.total("page_faults") == 1
        assert r.total("page_allocations") == 1
        assert r.total("page_cache_misses") == 1
        assert r.total("remote_fetches") == 1

    def test_second_access_same_block_hits_l1(self, scoma_tiny):
        r = run(scoma_tiny, [Access(512), Access(512)])
        assert r.total("l1_hits") == 1

    def test_tag_hit_serves_locally_after_l1_eviction(self, scoma_tiny):
        # Block 8 (remote, S-mapped) evicted from L1 by local block 0;
        # re-read hits the page cache, not the home.
        r = run(scoma_tiny, [Access(512), Access(0), Access(512)])
        assert r.total("remote_fetches") == 1
        assert r.total("page_cache_hits") == 1
        assert r.total("refetches") == 0

    def test_replacement_when_page_cache_full(self, scoma_tiny):
        # Page cache has 2 frames; touching 3 remote pages replaces LRM.
        r = run(scoma_tiny, [Access(512), Access(1024), Access(1536)],
                homes={0: 0, 1: 1, 2: 1, 3: 1})
        assert r.total("page_replacements") == 1
        assert r.total("page_faults") == 3

    def test_replaced_page_refault_is_not_refetch(self, scoma_tiny):
        # Flush notified the home, so the re-fault's fetches are cold.
        r = run(
            scoma_tiny,
            [Access(512), Access(1024), Access(1536), Access(512)],
            homes={0: 0, 1: 1, 2: 1, 3: 1},
        )
        assert r.total("refetches") == 0
        assert r.total("page_replacements") == 2

    def test_dirty_blocks_flushed_on_replacement(self, scoma_tiny):
        r = run(
            scoma_tiny,
            [Access(512, True), Access(1024), Access(1536)],
            homes={0: 0, 1: 1, 2: 1, 3: 1},
        )
        assert r.total("blocks_flushed") >= 1
        assert r.total("tlb_shootdowns") >= 1


class TestRNuma:
    def test_starts_as_cc(self, rnuma_tiny):
        engine = SimulationEngine(rnuma_tiny, [[Access(512)], []], dict(HOMES2))
        engine.run()
        assert engine.machine.nodes[0].page_table.mapping_of(1) == MAP_CC

    def test_relocates_at_threshold(self, rnuma_tiny):
        # Threshold 2: conflicting remote blocks 8/10 produce refetches;
        # after the second refetch the page relocates to S-COMA.
        trace = [Access(512), Access(640)] * 4
        engine = SimulationEngine(rnuma_tiny, [trace, []], dict(HOMES2))
        r = engine.run()
        assert r.total("relocations") == 1
        assert engine.machine.nodes[0].page_table.mapping_of(1) == MAP_SCOMA

    def test_after_relocation_hits_page_cache(self, rnuma_tiny):
        trace = [Access(512), Access(640)] * 8
        r = run(rnuma_tiny, trace)
        assert r.total("relocations") == 1
        assert r.total("page_cache_hits") > 0
        # Refetches stop growing once the page is local.
        assert r.total("refetches") <= 4

    def test_relocation_moves_held_blocks(self, rnuma_tiny):
        # Blocks held at relocation time are moved, not re-fetched.
        trace = [Access(512), Access(640)] * 4 + [Access(640)]
        engine = SimulationEngine(rnuma_tiny, [trace, []], dict(HOMES2))
        r = engine.run()
        node = engine.machine.nodes[0]
        assert node.tags.is_mapped(1)
        assert node.tags.valid_count(1) >= 1

    def test_counter_below_threshold_stays_cc(self):
        cfg = tiny_config("rnuma", relocation_threshold=50)
        trace = [Access(512), Access(640)] * 4
        engine = SimulationEngine(cfg, [trace, []], dict(HOMES2))
        r = engine.run()
        assert r.total("relocations") == 0
        assert engine.machine.nodes[0].page_table.mapping_of(1) == MAP_CC


class TestIdeal:
    def test_infinite_block_cache_never_refetches(self, ideal_tiny):
        trace = [Access(512 + 64 * i) for i in range(8)] * 3
        r = run(ideal_tiny, trace)
        assert r.total("refetches") == 0
        # One remote fetch per distinct block only.
        assert r.total("remote_fetches") == 8


class TestBarriers:
    def test_barrier_synchronizes(self, cc_tiny):
        # CPU 0 does lots of work before the barrier; CPU 1 none.
        trace0 = [Access(0, think=100) for _ in range(10)] + [Barrier(0)]
        trace1 = [Barrier(0), Access(1024)]
        r = run(cc_tiny, trace0, trace1, homes={0: 0, 1: 1, 2: 1})
        assert r.stats.node(1).barrier_wait_cycles > 0
        assert r.stats.barriers_crossed == 1

    def test_mismatched_barriers_rejected(self, cc_tiny):
        with pytest.raises(TraceError):
            SimulationEngine(cc_tiny, [[Barrier(0)], []], dict(HOMES2))

    def test_exec_time_is_last_finisher(self, cc_tiny):
        r = run(cc_tiny, [Access(0, think=1000)], [])
        assert r.exec_cycles >= 1000


class TestAccounting:
    def test_hits_plus_misses_equals_accesses(self, cc_tiny):
        trace = [Access(64 * i % 2048, i % 3 == 0) for i in range(50)]
        r = run(cc_tiny, trace, homes={i: i % 2 for i in range(4)})
        assert r.total("l1_hits") + r.total("l1_misses") == 50

    def test_determinism(self, rnuma_tiny):
        trace = [Access(512), Access(640), Access(0)] * 10
        r1 = run(rnuma_tiny, trace)
        r2 = run(rnuma_tiny, trace)
        assert r1.exec_cycles == r2.exec_cycles
        assert r1.stats.as_dict() == r2.stats.as_dict()

    def test_unknown_page_defaults_to_first_toucher(self, cc_tiny):
        # homes missing page 3 (addr 1536): engine assigns it on touch.
        engine = SimulationEngine(cc_tiny, [[Access(1536)], []], {0: 0, 1: 1})
        engine.run()
        assert engine.homes[3] == 0

    def test_wrong_trace_count_rejected(self, cc_tiny):
        with pytest.raises(TraceError):
            SimulationEngine(cc_tiny, [[]], HOMES2)

    def test_think_cycles_accrue_busy_time(self, cc_tiny):
        r = run(cc_tiny, [Access(0, think=500)])
        assert r.stats.node(0).busy_cycles >= 501


class TestRunAheadScheduler:
    """Scheduler-level behavior of the run-ahead engine (the result
    semantics are covered by tests/property/test_runahead_differential)."""

    def test_sched_stats_account_every_access(self, cc_tiny):
        engine = SimulationEngine(
            cc_tiny, [[Access(0, think=1) for _ in range(100)], []], HOMES2
        )
        engine.run()
        ss = engine.sched_stats
        assert ss["refs"] == 100
        assert ss["drains"] >= 1
        # Far fewer scheduler events than references: the hit stream
        # drains (the peer cpu has an empty trace and retires at once).
        assert ss["heap_pops"] + ss["heap_pushes"] < 10

    def test_serial_section_drains_without_heap_traffic(self, cc_tiny):
        # CPU 1 parks at the barrier immediately; CPU 0 then owns the
        # machine and must drain its whole stretch in O(1) heap ops.
        trace0 = [Access(0, think=1) for _ in range(500)] + [Barrier(0)]
        engine = SimulationEngine(cc_tiny, [trace0, [Barrier(0)]], HOMES2)
        engine.run()
        ss = engine.sched_stats
        assert ss["refs"] == 500
        assert ss["heap_pushes"] <= 4  # barrier release only
        assert ss["refs"] / ss["drains"] >= 50

    def test_reference_engine_produces_same_result(self, rnuma_tiny):
        from repro.sim.reference import ReferenceEngine

        # Conflict-heavy two-cpu trace crossing a barrier.
        trace0 = [Access(64 * i % 2048, i % 3 == 0, i % 5) for i in range(200)]
        trace1 = [Access(64 * i % 2048, i % 2 == 0, i % 7) for i in range(150)]
        traces = [trace0 + [Barrier(0)], trace1 + [Barrier(0)]]
        fast = SimulationEngine(rnuma_tiny, [list(t) for t in traces]).run()
        slow = ReferenceEngine(rnuma_tiny, [list(t) for t in traces]).run()
        assert fast.exec_cycles == slow.exec_cycles
        assert fast.cpu_finish_times == slow.cpu_finish_times
        assert fast.stats.as_dict() == slow.stats.as_dict()

    def test_moesi_encoding_pinned(self):
        # The hot loop's arithmetic shortcuts depend on these values;
        # the engine asserts them at import, mirror the pin here.
        from repro.coherence import states

        assert (
            states.INVALID,
            states.SHARED,
            states.EXCLUSIVE,
            states.OWNED,
            states.MODIFIED,
        ) == (0, 1, 2, 3, 4)


class TestBarrierValidationMemo:
    def test_compiled_program_skips_engine_validation(self, cc_tiny, monkeypatch):
        import repro.workloads.compile as compile_mod
        from repro.workloads.compile import CompiledProgram

        program = CompiledProgram("skip", traces=[[Access(0)], [Access(512)]])
        # The program was checked when it was built; the engine must
        # not check it again.
        monkeypatch.setattr(
            compile_mod,
            "validate_barrier_sequences",
            lambda columns: pytest.fail("compiled programs are pre-validated"),
        )
        simulate(cc_tiny, program, dict(HOMES2))
