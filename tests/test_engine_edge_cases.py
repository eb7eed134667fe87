"""Engine edge cases: paths exercised rarely in the app workloads."""

import pytest

from repro.caches.finegrain import BLOCK_READONLY, BLOCK_WRITABLE
from repro.common.records import Access, Barrier
from repro.sim.engine import SimulationEngine, simulate
from repro.vm.page_table import MAP_SCOMA

from tests.conftest import tiny_config

HOMES2 = {0: 0, 1: 1}


def run_engine(config, trace0, trace1=(), homes=None):
    engine = SimulationEngine(
        config, [list(trace0), list(trace1)], dict(homes or HOMES2)
    )
    return engine, engine.run()


class TestSComaWriteUpgrade:
    def test_readonly_tag_write_upgrades_without_refetch(self, scoma_tiny):
        # Read establishes a READONLY tag; the write upgrade must not be
        # misclassified as a capacity refetch.
        engine, r = run_engine(scoma_tiny, [Access(512), Access(512, True)])
        assert r.total("refetches") == 0
        node = engine.machine.nodes[0]
        assert node.tags.get(1, 0) == BLOCK_WRITABLE

    def test_invalidated_tag_write_refetches_as_coherence(self, scoma_tiny):
        # Node 0 writes; home writes back (invalidating node 0's tag);
        # node 0 writes again: coherence, not refetch.
        trace0 = [Access(512, True), Barrier(0), Barrier(1), Access(512, True)]
        trace1 = [Barrier(0), Access(512, True), Barrier(1)]
        _, r = run_engine(scoma_tiny, trace0, trace1)
        assert r.total("refetches") == 0
        assert r.stats.node(0).coherence_misses == 1


class TestRelocationMidFetch:
    def test_triggering_fetch_lands_in_page_cache(self, rnuma_tiny):
        # The fetch whose refetch crosses the threshold must install its
        # block into the *relocated* page's tags, not the block cache.
        trace = [Access(512), Access(640)] * 3
        engine, r = run_engine(rnuma_tiny, trace)
        node = engine.machine.nodes[0]
        assert r.total("relocations") == 1
        assert node.page_table.mapping_of(1) == MAP_SCOMA
        # The triggering block (8 or 10) has a valid tag, and the block
        # cache holds nothing from the page anymore.
        assert node.tags.valid_count(1) >= 1
        assert node.block_cache.lookup(8) is None or node.block_cache.lookup(10) is None

    def test_write_triggered_relocation(self):
        cfg = tiny_config("rnuma", relocation_threshold=2)
        # Alternating *writes* to conflicting blocks also refetch (the
        # written-back blocks keep was_held) and must relocate.
        trace = [Access(512, True), Access(640, True)] * 4
        engine, r = run_engine(cfg, trace)
        assert r.total("relocations") == 1
        node = engine.machine.nodes[0]
        assert node.tags.get(1, 0) != 0 or node.tags.get(1, 2) != 0


class TestL1WritebackWithoutBlockCacheFrame:
    def test_dirty_l1_line_displaced_after_bc_eviction(self, rnuma_tiny):
        # R-NUMA's 2-line block cache: write block 8 (bc set 0), fetch
        # block 10 (evicts 8 from bc, invalidating L1 under inclusion),
        # then the path where an L1-dirty line has no bc frame is the
        # read-only non-inclusion case — construct via reads + writes.
        trace = [
            Access(512, True),   # block 8 dirty in L1+bc
            Access(640),         # block 10 read: evicts bc line 8 (RW -> writeback)
            Access(512, True),   # refetch 8 for writing
        ]
        _, r = run_engine(rnuma_tiny, trace)
        assert r.total("block_cache_writebacks") >= 1
        assert r.total("refetches") >= 1


class TestColdStartAndIdle:
    def test_all_idle_cpus(self, cc_tiny):
        _, r = run_engine(cc_tiny, [], [])
        assert r.exec_cycles == 0
        assert r.total("l1_hits") == 0

    def test_single_access_program(self, cc_tiny):
        _, r = run_engine(cc_tiny, [Access(0)])
        assert r.exec_cycles >= 1

    def test_zero_think_storm(self, cc_tiny):
        trace = [Access(64 * i % 512, False, 0) for i in range(100)]
        _, r = run_engine(cc_tiny, trace)
        assert r.total("l1_hits") + r.total("l1_misses") == 100


class TestStatsConsistency:
    def test_page_cache_hits_only_under_scoma_mappings(self, cc_tiny):
        _, r = run_engine(cc_tiny, [Access(512), Access(512)])
        assert r.total("page_cache_hits") == 0

    def test_block_cache_untouched_by_scoma(self, scoma_tiny):
        _, r = run_engine(scoma_tiny, [Access(512), Access(640)])
        assert r.total("block_cache_hits") == 0
        assert r.total("block_cache_misses") == 0

    def test_remote_fetch_accounting_balances(self, rnuma_tiny):
        trace = [Access(512 + 64 * i, i % 2 == 0) for i in range(8)] * 2
        _, r = run_engine(rnuma_tiny, trace)
        # Every refetch and coherence miss is a remote fetch; the rest
        # are cold fetches.
        assert (
            r.total("refetches") + r.total("coherence_misses")
            <= r.total("remote_fetches")
        )
