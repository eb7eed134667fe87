"""Unit tests for first-touch page placement."""

from repro.common.addressing import AddressSpace
from repro.common.params import MachineParams
from repro.common.records import Access, Barrier
from repro.osint.placement import first_touch_homes, resolve_home

SPACE = AddressSpace(block_size=64, page_size=512)
MACHINE = MachineParams(nodes=2, cpus_per_node=1)


def test_single_toucher():
    traces = [[Access(0, True)], []]
    homes = first_touch_homes(traces, MACHINE, SPACE)
    assert homes == {0: 0}


def test_each_cpu_homes_its_pages():
    traces = [
        [Access(0, True), Access(512, True)],
        [Access(1024, True), Access(1536, True)],
    ]
    homes = first_touch_homes(traces, MACHINE, SPACE)
    assert homes == {0: 0, 1: 0, 2: 1, 3: 1}


def test_round_robin_interleaving_decides_ties():
    # Both CPUs touch page 0; CPU 0's touch is at the same index, and
    # lower CPU ids win ties in the round-robin pre-pass.
    traces = [[Access(0, True)], [Access(64, True)]]
    homes = first_touch_homes(traces, MACHINE, SPACE)
    assert homes[0] == 0


def test_earlier_index_wins_regardless_of_cpu():
    # CPU 1 touches page 0 at index 0; CPU 0 only at index 1.
    traces = [
        [Access(512, True), Access(0, True)],
        [Access(0, True)],
    ]
    homes = first_touch_homes(traces, MACHINE, SPACE)
    assert homes[0] == 1


def test_barriers_are_skipped():
    traces = [
        [Barrier(0), Access(0, True)],
        [Barrier(0)],
    ]
    homes = first_touch_homes(traces, MACHINE, SPACE)
    assert homes == {0: 0}


def test_empty_traces():
    assert first_touch_homes([[], []], MACHINE, SPACE) == {}


def test_all_pages_assigned():
    traces = [
        [Access(i * 512, False) for i in range(10)],
        [Access((i + 10) * 512, True) for i in range(10)],
    ]
    homes = first_touch_homes(traces, MACHINE, SPACE)
    assert len(homes) == 20
    assert set(homes.values()) <= {0, 1}


class TestResolveHome:
    def test_known_page_wins_over_faulting_node(self):
        homes = {3: 1}
        assert resolve_home(homes, 3, 0) == 1
        assert homes == {3: 1}

    def test_unknown_page_is_adopted_and_recorded(self):
        homes = {}
        assert resolve_home(homes, 7, 1) == 1
        assert homes == {7: 1}
        # A later fault on another node sees the recorded adoption.
        assert resolve_home(homes, 7, 0) == 1


class TestPartialPlacementAcrossEngines:
    def test_partial_homes_map_identical_on_all_engines(self):
        """A user-supplied placement covering only some pages: every
        backend must run the same late-first-touch fallback (the shared
        resolve_home helper) and land on identical results *and* an
        identically completed homes map."""
        from repro.sim.engine import simulate
        from repro.sim.reference import simulate_reference
        from tests.conftest import tiny_config
        from tests.property.test_runahead_differential import (
            assert_identical_results,
        )

        # Pages 0..3 touched; only pages 0 and 2 pre-placed (both on the
        # "wrong" node relative to first touch, so the map must win).
        traces = [
            [Access(0, True), Access(512, False), Access(1024, True)],
            [Access(1536, True), Access(0, False), Access(1024, False)],
        ]
        partial = {0: 1, 2: 1}
        for protocol in ("ccnuma", "scoma", "rnuma", "ideal"):
            config = tiny_config(protocol)
            results = []
            completed = []
            for run in (simulate, simulate_reference):
                homes = dict(partial)
                results.append(run(config, [list(t) for t in traces], homes))
                completed.append(homes)
            for other in results[1:]:
                assert_identical_results(results[0], other)
            # The fallback completed the map the same way everywhere,
            # honoring the partial entries.
            assert all(c == completed[0] for c in completed[1:])
            assert completed[0][0] == 1 and completed[0][2] == 1
            assert set(completed[0]) == {0, 1, 2, 3}

    def test_engine_instances_share_the_caller_map(self):
        """make_engine must keep the caller's dict as the live homes map
        (first-touch adoptions visible to the caller), for every backend."""
        from repro.sim.factory import ENGINES, make_engine
        from tests.conftest import tiny_config

        for name in ENGINES:
            homes = {}
            engine = make_engine(
                tiny_config("ccnuma"), [[Access(0, True)], []], homes, name
            )
            engine.run()
            assert homes == {0: 0}, name
