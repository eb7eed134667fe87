"""Tests for the ablation knobs: page-replacement policies, relocation
modes, and round-robin placement."""

import pytest

from repro.caches.finegrain import BLOCK_INVALID
from repro.caches.page_cache import PageCache
from repro.common.addressing import AddressSpace
from repro.common.errors import ConfigurationError
from repro.common.params import CacheParams, MachineParams, SystemConfig
from repro.common.records import Access
from repro.machine.machine import Machine
from repro.osint.placement import round_robin_homes
from repro.osint.services import map_cc_page, relocate_page_to_scoma
from repro.sim.engine import SimulationEngine, simulate

from tests.conftest import TINY_SPACE, tiny_config


class TestReplacementPolicies:
    def test_fifo_never_reorders(self):
        pc = PageCache(3, policy="fifo")
        for p in (1, 2, 3):
            pc.insert(p)
        pc.touch_miss(1)
        pc.touch_hit(1)
        assert pc.victim() == 1  # insertion order rules

    def test_lru_reorders_on_hit(self):
        pc = PageCache(3, policy="lru")
        for p in (1, 2, 3):
            pc.insert(p)
        pc.touch_hit(1)
        assert pc.victim() == 2
        assert pc.reorders_on_hit

    def test_lrm_ignores_hits(self):
        pc = PageCache(3, policy="lrm")
        for p in (1, 2, 3):
            pc.insert(p)
        pc.touch_hit(1)          # no-op under LRM
        assert pc.victim() == 1
        assert not pc.reorders_on_hit

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            PageCache(2, policy="random")
        with pytest.raises(ConfigurationError):
            CacheParams(page_replacement="random")

    def test_policy_plumbed_to_node(self):
        cfg = tiny_config("scoma", caches=CacheParams(
            l1_size=128, block_cache_size=128, page_cache_size=1024,
            page_replacement="fifo",
        ))
        machine = Machine(cfg)
        assert machine.nodes[0].page_cache.policy == "fifo"

    def test_lru_scoma_end_to_end(self):
        # LRU keeps the re-referenced page; LRM evicts it.  Page 1 is
        # touched, hit repeatedly, then pages 2 and 3 arrive.
        homes = {0: 0, 1: 1, 2: 1, 3: 1}
        trace = (
            [Access(512), Access(576), Access(512), Access(576)]
            + [Access(1024), Access(1536)]
            + [Access(512)]  # re-touch page 1
        )

        def run(policy):
            cfg = tiny_config("scoma", caches=CacheParams(
                l1_size=128, block_cache_size=128, page_cache_size=1024,
                page_replacement=policy,
            ))
            return simulate(cfg, [list(trace), []], dict(homes))

        lrm = run("lrm")
        lru = run("lru")
        # Under both, 2 frames hold 3 pages -> at least one replacement;
        # behaviourally they may differ in *which* page survives, but
        # both must stay within frame capacity and count faults.
        assert lrm.total("page_replacements") >= 1
        assert lru.total("page_replacements") >= 1


class TestRelocationModes:
    def _machine(self, mode):
        cfg = tiny_config("rnuma", relocation_mode=mode)
        machine = Machine(cfg)
        node = machine.nodes[0]
        map_cc_page(machine, node, 1)
        machine.directory.read_request(8, 0)
        node.block_cache.insert(8, writable=False)
        return machine, node

    def test_local_mode_keeps_blocks(self):
        machine, node = self._machine("local")
        relocate_page_to_scoma(machine, node, 1)
        assert node.tags.get(1, 0) != BLOCK_INVALID
        assert machine.directory.was_held_by(8, 0)

    def test_flush_mode_relinquishes_blocks(self):
        machine, node = self._machine("flush")
        relocate_page_to_scoma(machine, node, 1)
        assert node.tags.get(1, 0) == BLOCK_INVALID
        assert not machine.directory.was_held_by(8, 0)
        assert node.stats.blocks_flushed == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(relocation_mode="teleport")

    def test_flush_mode_end_to_end_refetches_after_relocation(self):
        homes = {0: 0, 1: 1}
        trace = [Access(512), Access(640)] * 8
        local = simulate(tiny_config("rnuma"), [list(trace), []], dict(homes))
        flush = simulate(
            tiny_config("rnuma", relocation_mode="flush"),
            [list(trace), []],
            dict(homes),
        )
        assert local.total("relocations") == flush.total("relocations") == 1
        # Flush mode must re-fetch the flushed blocks.
        assert flush.total("remote_fetches") >= local.total("remote_fetches")


class TestRoundRobinPlacement:
    SPACE = AddressSpace(block_size=64, page_size=512)
    MACHINE = MachineParams(nodes=2, cpus_per_node=1)

    def test_pages_striped_by_number(self):
        traces = [[Access(i * 512) for i in range(6)], []]
        homes = round_robin_homes(traces, self.MACHINE, self.SPACE)
        assert homes == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1}

    def test_only_touched_pages_assigned(self):
        traces = [[Access(512)], []]
        homes = round_robin_homes(traces, self.MACHINE, self.SPACE)
        assert homes == {1: 1}

    def test_engine_accepts_round_robin_homes(self):
        traces = [[Access(0), Access(512)], []]
        homes = round_robin_homes(traces, self.MACHINE, self.SPACE)
        result = SimulationEngine(
            tiny_config("ccnuma"), [list(t) for t in traces], dict(homes)
        ).run()
        assert result.exec_cycles > 0


class TestAblationComputations:
    def test_relocation_ablation_small(self):
        from repro.experiments.ablations import compute_relocation_ablation, format_ablation

        result = compute_relocation_ablation(scale=0.12, apps=("moldyn",))
        row = result.normalized["moldyn"]
        assert set(row) == {"R-NUMA local-move", "R-NUMA flush-home"}
        assert "Ablation" in format_ablation(result)

    def test_placement_ablation_small(self):
        from repro.experiments.ablations import compute_placement_ablation

        result = compute_placement_ablation(scale=0.12, apps=("em3d",))
        row = result.normalized["em3d"]
        # Round-robin placement must not beat first-touch for em3d.
        assert row["CC round-robin"] >= row["CC first-touch"] * 0.99

    def test_replacement_ablation_small(self):
        from repro.experiments.ablations import compute_replacement_ablation

        result = compute_replacement_ablation(scale=0.12, apps=("em3d",))
        assert len(result.normalized["em3d"]) == 3
