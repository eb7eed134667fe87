"""Reset/determinism regression for the columnar memory system.

PR 4 pinned that ``Network.reset()`` restores the interconnect so two
identical runs report identical delays (see
``tests/test_interconnect.py``).  This extends the guarantee to the
whole machine: with the array-backed directory, block cache, page
cache, TLBs, and translation tables, back-to-back ``run()`` calls on
one engine (one machine instance) must produce bit-identical
results — every column zeroes *in place*, every free-list refills, and
no buffer changes identity (the engine hoists them into locals).
"""

from __future__ import annotations

from repro.common.records import Access, Barrier
from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
from repro.machine.machine import Machine
from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceEngine
from repro.workloads.registry import build_program

from tests.conftest import tiny_config

PROTOCOLS = ("ccnuma", "scoma", "rnuma", "ideal")


def _snapshot(result):
    """Everything a SimulationResult exposes, as immutable values.

    The stats objects are shared with the machine and zeroed by
    reset(), so the comparison must copy them out.
    """
    return (
        result.exec_cycles,
        tuple(result.cpu_finish_times),
        tuple(tuple(sorted(n.as_dict().items())) for n in result.stats.nodes),
        result.stats.barriers_crossed,
        {node: dict(pages) for node, pages in result.refetch_counts.items()},
        frozenset(result.rw_shared_pages),
        result.remote_pages_touched,
    )


class TestEngineReset:
    def test_back_to_back_runs_identical_on_an_app(self):
        program = build_program("em3d", scale=0.05)
        for config in (ideal(), cc_config(), scoma_config(), rnuma_config()):
            engine = SimulationEngine(config, program)
            first = _snapshot(engine.run())
            engine.reset()
            second = _snapshot(engine.run())
            assert second == first, f"reset drifted for {config.protocol}"

    def test_back_to_back_runs_identical_on_tiny_conflict_traces(self):
        # The tiny geometry maximizes evictions, write-backs, and
        # S-COMA replacement, so reset must restore the page-cache
        # recency list, translation-table free list, and TLB counters.
        traces = [
            [Access(a * 64, is_write=a % 3 == 0, think=1) for a in range(120)]
            + [Barrier(0)],
            [Access((a * 64 + 512) % 4096, think=0) for a in range(120)]
            + [Barrier(0)],
        ]
        for protocol in PROTOCOLS:
            config = tiny_config(protocol)
            engine = SimulationEngine(config, [list(t) for t in traces])
            first = _snapshot(engine.run())
            engine.reset()
            second = _snapshot(engine.run())
            assert second == first, f"reset drifted for {protocol}"

    def test_relocation_heavy_rnuma_runs_identical(self):
        # Page thrash: relocations, page-cache evictions, remaps.  The
        # intrusive-list page cache and frame free-lists must recycle
        # identically on the second run.
        from repro.workloads.synthetic import worst_case_for_rnuma
        from repro.common.params import (
            CacheParams,
            MachineParams,
            SystemConfig,
        )
        from repro.common.addressing import AddressSpace

        space = AddressSpace()
        machine = MachineParams(nodes=2, cpus_per_node=1)
        program = worst_case_for_rnuma(machine, space, threshold=8, pages=6)
        config = SystemConfig(
            protocol="rnuma",
            machine=machine,
            caches=CacheParams(block_cache_size=128, page_cache_size=2 * 4096),
            space=space,
            relocation_threshold=8,
        )
        engine = SimulationEngine(config, [list(t) for t in program.traces])
        first_result = engine.run()
        assert first_result.total("relocations") > 0
        assert first_result.total("page_replacements") > 0
        first = _snapshot(first_result)
        engine.reset()
        assert second_equal(engine, first)

    def test_every_directory_representation_resets_cleanly(self):
        # The inexact representations carry extra per-slot state
        # (limited: overflow modes) and different update rules; reset
        # must restore all of it in place for every rep.
        from dataclasses import replace

        from repro.common.params import DirectoryParams

        reps = (
            DirectoryParams(representation="limited", pointers=1,
                            overflow="broadcast"),
            DirectoryParams(representation="limited", pointers=1,
                            overflow="evict"),
            DirectoryParams(representation="coarse", region_size=2),
        )
        program = build_program("em3d", scale=0.05)
        for params in reps:
            for base in (ideal(), cc_config(), scoma_config(), rnuma_config()):
                config = replace(base, directory=params)
                engine = SimulationEngine(config, program)
                directory = engine.machine.directory
                slots = directory.slots
                first = _snapshot(engine.run())
                engine.reset()
                assert len(directory) == 0
                assert directory.slots is slots  # cleared in place
                second = _snapshot(engine.run())
                assert second == first, (
                    f"reset drifted for {base.protocol} "
                    f"with {params.representation}"
                )

    def test_frozen_reference_engine_resets_too(self):
        # The oracle must stay usable across resets as well (the legacy
        # structures grew matching in-place reset()s).
        program = build_program("em3d", scale=0.05)
        engine = ReferenceEngine(cc_config(), program)
        first = _snapshot(engine.run())
        engine.reset()
        assert _snapshot(engine.run()) == first


def second_equal(engine, first) -> bool:
    return _snapshot(engine.run()) == first


class TestResetRestoresPristineState:
    def test_machine_reset_empties_every_structure_in_place(self):
        program = build_program("em3d", scale=0.05)
        config = rnuma_config()
        engine = SimulationEngine(config, program)
        machine = engine.machine
        node = machine.nodes[0]
        # Capture buffer identities: the engine hoists these.
        l1_blocks = [l1.block_at for l1 in node.l1s]
        bc_blocks = node.block_cache.block_at
        dir_slots = machine.directory.slots
        page_state = node.page_table.state
        engine.run()
        assert len(machine.directory) > 0
        machine.reset()
        # Empty again ...
        assert len(machine.directory) == 0
        assert len(node.block_cache) == 0
        assert len(node.page_cache) == 0
        assert len(node.page_table) == 0
        assert not node.refetch_counters and not node.coherence_lost
        assert node.stats.l1_misses == 0 and node.stats.busy_cycles == 0
        assert not machine.page_requesters and not machine.page_writers
        # ... and in place: no buffer was replaced.
        assert all(
            l1.block_at is old for l1, old in zip(node.l1s, l1_blocks)
        )
        assert node.block_cache.block_at is bc_blocks
        assert machine.directory.slots is dir_slots
        assert node.page_table.state is page_state
        assert node.page_state is node.page_table.state
        assert node.tag_rows is node.tags.rows

    def test_stats_registry_keeps_node_stats_identity(self):
        machine = Machine(cc_config())
        before = [id(ns) for ns in machine.stats.nodes]
        machine.nodes[0].stats.l1_hits = 7
        machine.reset()
        assert [id(ns) for ns in machine.stats.nodes] == before
        assert machine.stats.nodes[0].l1_hits == 0
