"""The protocols' two OS actions: the remote page fault and the refetch.

The four systems share one coherence protocol (paper Sections 2-3).
On a node's first touch of a remote page, S-COMA allocates the page a
page-cache frame and the other three map it CC.  Only R-NUMA counts
refetches, relocating a page when its count reaches the threshold.
"""

import pytest

from repro.common.records import Access
from repro.machine.machine import Machine
from repro.osint.services import allocate_scoma_page, count_refetch, map_cc_page
from repro.sim.engine import SimulationEngine
from repro.vm.page_table import MAP_CC, MAP_SCOMA

from tests.conftest import tiny_config

#: Page 1 is homed on node 1, so it is remote for CPU 0 on node 0.
HOMES = {0: 0, 1: 1}
P1 = 512
BLOCK = 64


def run_cpu0(protocol, trace, **overrides):
    """Run ``trace`` on CPU 0 of the tiny machine; CPU 1 stays idle."""
    engine = SimulationEngine(
        tiny_config(protocol, **overrides), [trace, []], dict(HOMES)
    )
    result = engine.run()
    return engine.machine.nodes[0], result


class TestFaultHandling:
    def test_map_cc_page(self):
        machine = Machine(tiny_config("ccnuma"))
        node = machine.nodes[0]
        cost = map_cc_page(machine, node, 3)
        assert node.page_table.mapping_of(3) == MAP_CC
        assert cost == machine.config.costs.soft_trap

    def test_allocate_scoma_page(self):
        machine = Machine(tiny_config("scoma"))
        node = machine.nodes[0]
        allocate_scoma_page(machine, node, 3)
        assert node.page_table.mapping_of(3) == MAP_SCOMA

    @pytest.mark.parametrize(
        "protocol, mapping",
        [
            ("ccnuma", MAP_CC),
            ("rnuma", MAP_CC),
            ("ideal", MAP_CC),
            ("scoma", MAP_SCOMA),
        ],
    )
    def test_engine_maps_first_remote_touch(self, protocol, mapping):
        node, result = run_cpu0(protocol, [Access(P1)])
        assert node.page_table.mapping_of(1) == mapping
        assert result.total("page_faults") == 1


class TestCountRefetch:
    def setup_method(self):
        self.machine = Machine(tiny_config("rnuma", relocation_threshold=3))
        self.node = self.machine.nodes[0]
        map_cc_page(self.machine, self.node, 3)

    def refetch(self, page=3):
        return count_refetch(self.machine, self.node, page)

    def test_counts_up_to_threshold_then_relocates(self):
        assert self.refetch() == 0
        assert self.refetch() == 0
        assert self.node.refetch_counters == {3: 2}
        # The third refetch reaches T = 3: the page moves to a free
        # frame holding no block, so it costs one plain page operation.
        assert self.refetch() == self.machine.config.costs.page_op_cost(0)
        assert self.node.page_table.mapping_of(3) == MAP_SCOMA
        assert self.node.refetch_counters == {}
        assert self.node.stats.relocations == 1

    def test_ignores_pages_not_cc_mapped(self):
        for _ in range(3):
            self.refetch()
        # Page 3 is S-COMA-mapped now and page 5 is unmapped.
        assert self.refetch() == 0
        assert self.refetch(5) == 0
        assert self.node.refetch_counters == {}
        assert self.node.stats.relocations == 1

    def test_independent_counters_per_page(self):
        map_cc_page(self.machine, self.node, 4)
        self.refetch(3)
        self.refetch(4)
        assert self.node.refetch_counters == {3: 1, 4: 1}


@pytest.mark.parametrize("protocol, counters", [("ccnuma", {}), ("rnuma", {1: 1})])
def test_only_rnuma_counts_refetches(protocol, counters):
    # Blocks 8 and 10 share L1 and block-cache set 0, so the third read
    # refetches block 8.  T = 64 keeps R-NUMA's count below it.
    node, result = run_cpu0(
        protocol,
        [Access(P1), Access(P1 + 2 * BLOCK), Access(P1)],
        relocation_threshold=64,
    )
    assert result.total("refetches") == 1
    assert node.refetch_counters == counters
