"""An engine runs once; these tests pin the two facts that make it safe.

1. A run changes nothing it shares.  A sweep hands one registry-cached
   :class:`~repro.workloads.compile.CompiledProgram` (with its memoized
   first-touch map and profile) to every protocol, so a fresh engine
   must repeat a run bit for bit whatever ran on that program before.
2. No structure replaces a hot buffer while the engine runs.  The
   engine hoists the L1, block-cache, directory and page-table columns
   into locals at construction, so each one must keep its identity for
   the whole run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.addressing import AddressSpace
from repro.common.params import (
    CacheParams,
    DirectoryParams,
    MachineParams,
    SystemConfig,
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
)
from repro.common.records import Access, Barrier
from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceEngine
from repro.workloads.compile import compile_program
from repro.workloads.registry import build_program
from repro.workloads.synthetic import worst_case_for_rnuma

from tests.conftest import tiny_config

PROTOCOLS = ("ccnuma", "scoma", "rnuma", "ideal")


def _app_configs():
    return (
        ideal_config(),
        base_ccnuma_config(),
        base_scoma_config(),
        base_rnuma_config(),
    )


def _relocation_heavy():
    """Page thrash on two nodes: relocations, page-cache evictions and
    remaps, so the frame free-lists recycle during the run."""
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
    return config, compile_program("thrash", program.traces)


def _run(config, program, engine=SimulationEngine):
    return engine(config, program).run()


def assert_same_run(a, b):
    assert a == b
    assert a.directory_overflows == b.directory_overflows


class TestFreshRunsRepeat:
    def test_protocols_sharing_one_program_repeat_in_any_order(self):
        program = build_program("em3d", scale=0.05)
        configs = _app_configs()
        machine, space = configs[0].machine, configs[0].space
        homes = dict(program.first_touch_homes(machine, space))
        first = [_run(config, program) for config in configs]
        again = [_run(config, program) for config in reversed(configs)]
        for a, b in zip(first, reversed(again)):
            assert_same_run(a, b)
        # Eight runs later the memoized first-touch map is unchanged.
        assert program.first_touch_homes(machine, space) == homes

    def test_tiny_conflict_traces_repeat(self):
        # The tiny geometry maximizes evictions, write-backs and S-COMA
        # replacement on a program every protocol shares.
        program = compile_program(
            "conflict",
            [
                [Access(a * 64, is_write=a % 3 == 0, think=1) for a in range(120)]
                + [Barrier(0)],
                [Access((a * 64 + 512) % 4096, think=0) for a in range(120)]
                + [Barrier(0)],
            ],
        )
        first = [_run(tiny_config(p), program) for p in PROTOCOLS]
        for protocol, a in zip(PROTOCOLS, first):
            assert_same_run(_run(tiny_config(protocol), program), a)

    def test_relocation_heavy_rnuma_repeats(self):
        config, program = _relocation_heavy()
        first = _run(config, program)
        assert first.total("relocations") > 0
        assert first.total("page_replacements") > 0
        assert_same_run(_run(config, program), first)

    def test_every_directory_representation_repeats(self):
        # The inexact representations keep their own update rules and
        # overflow counters; each starts from empty in a fresh engine.
        reps = (
            DirectoryParams(representation="limited", pointers=1, overflow="broadcast"),
            DirectoryParams(representation="limited", pointers=1, overflow="evict"),
            DirectoryParams(representation="coarse", region_size=2),
        )
        program = build_program("em3d", scale=0.05)
        for params in reps:
            for base in _app_configs():
                config = replace(base, directory=params)
                assert_same_run(_run(config, program), _run(config, program))

    def test_frozen_reference_engine_repeats(self):
        program = build_program("em3d", scale=0.05)
        first = _run(base_ccnuma_config(), program, ReferenceEngine)
        assert_same_run(_run(base_ccnuma_config(), program, ReferenceEngine), first)


def _hot_buffers(machine):
    """Every buffer the engine hoists or aliases, in a fixed order."""
    directory = machine.directory
    buffers = [
        directory.slots,
        directory.owners,
        directory.sharer_masks,
        directory.held_masks,
    ]
    for node in machine.nodes:
        for l1, (_, block_at, state_at) in zip(node.l1s, node.l1_arrays):
            buffers += [l1.block_at, l1.state_at, block_at, state_at]
        bc = node.block_cache
        buffers += [bc.block_at, bc.writable_at, bc.dirty_at, *node.bc_cols[1:]]
        buffers += [node.page_table.state, node.page_state]
        buffers += [node.tags.rows, node.tag_rows, node.stats]
    return buffers


class TestHotBuffersHoldForARun:
    @pytest.mark.parametrize("workload", ["em3d", "relocation-heavy"])
    def test_a_run_replaces_no_hot_buffer(self, workload):
        if workload == "em3d":
            config, program = base_rnuma_config(), build_program("em3d", scale=0.05)
        else:
            config, program = _relocation_heavy()
        engine = SimulationEngine(config, program)
        machine = engine.machine
        before = _hot_buffers(machine)
        result = engine.run()
        assert len(machine.directory) > 0
        assert all(a is b for a, b in zip(_hot_buffers(machine), before, strict=True))
        # The aliases still name their owners' buffers ...
        for node in machine.nodes:
            assert node.page_state is node.page_table.state
            assert node.tag_rows is node.tags.rows
        # ... and the result reports the nodes' own stats objects.
        assert all(
            n.stats is s for n, s in zip(machine.nodes, result.stats.nodes, strict=True)
        )
