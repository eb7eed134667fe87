"""Differential property test: the run-ahead scheduler against the
retained reference loop.

The run-ahead engine (:mod:`repro.sim.engine`) claims to be
*schedule-exact*: draining a CPU while its next event sorts before the
heap head reproduces the classic pop order tuple-for-tuple, and the
analytic hit/busy accounting reproduces the per-reference counters.
The claim is only worth anything if it holds on adversarial inputs —
same-cycle cross-CPU conflicts on one cache set, write upgrades racing
invalidations, barrier ties — so this test throws randomized synthetic
traces at both engines across all four protocols and requires the
entire :class:`~repro.sim.results.SimulationResult` to match:
exec_cycles, per-CPU finish times, every per-node counter, refetch
counts, and the page-sharing classification.

The tiny geometry (2-line L1s, 8 blocks per page) maximizes conflict
density so ties and invalidation races actually happen within a few
hundred references.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import MachineParams
from repro.common.records import Access, Barrier
from repro.sim.engine import simulate
from repro.sim.reference import simulate_reference

from tests.conftest import TINY_CACHES, tiny_config

PROTOCOLS = ("ccnuma", "scoma", "rnuma", "ideal")

#: Every protocol on the tiny geometry, plus CC-NUMA and R-NUMA with no
#: block cache, whose zero-frame columns drop every store.
CONFIGS = [tiny_config(p) for p in PROTOCOLS] + [
    tiny_config(p, caches=replace(TINY_CACHES, block_cache_size=0))
    for p in ("ccnuma", "rnuma")
]

# Addresses span 8 pages of the tiny 512-byte-page space: enough pages
# to exercise remote homes, few enough that CPUs collide constantly.
addresses = st.integers(min_value=0, max_value=8 * 512 - 1)
accesses = st.tuples(
    addresses,
    st.booleans(),
    st.integers(min_value=0, max_value=5),
)


@st.composite
def programs(draw):
    """Per-CPU traces with a shared barrier skeleton.

    Every CPU crosses the same barrier sequence (the engine validates
    that), but arrives with independently drawn access stretches —
    including empty ones, which exercise the park-at-barrier and
    trace-exhausted edges of the drain loop.
    """
    n_barriers = draw(st.integers(min_value=0, max_value=3))
    traces = []
    for _ in range(2):  # tiny machine: 2 nodes x 1 cpu
        items = []
        for k in range(n_barriers + 1):
            stretch = draw(st.lists(accesses, max_size=40))
            items.extend(Access(a, w, th) for a, w, th in stretch)
            if k < n_barriers:
                items.append(Barrier(k))
        traces.append(items)
    return traces


def assert_identical_results(a, b):
    assert a.exec_cycles == b.exec_cycles
    assert a.cpu_finish_times == b.cpu_finish_times
    assert [n.as_dict() for n in a.stats.nodes] == [
        n.as_dict() for n in b.stats.nodes
    ]
    assert a.stats.barriers_crossed == b.stats.barriers_crossed
    assert a.refetch_counts == b.refetch_counts
    assert a.rw_shared_pages == b.rw_shared_pages
    assert a.remote_pages_touched == b.remote_pages_touched


@given(traces=programs(), config=st.sampled_from(CONFIGS))
@settings(max_examples=300, deadline=None)
def test_runahead_matches_reference(traces, config):
    fast = simulate(config, [list(t) for t in traces])
    slow = simulate_reference(config, [list(t) for t in traces])
    assert_identical_results(fast, slow)


@given(traces=programs())
@settings(max_examples=40, deadline=None)
def test_runahead_matches_reference_multi_cpu_nodes(traces):
    """Two CPUs per node: intra-node snoops, peer invalidations, and
    same-set races between slots go through the drain loop too."""
    # Reuse the two drawn traces on both slots of each node (the four
    # CPUs then collide heavily on the same lines).
    traces = [list(traces[0]), list(traces[1]), list(traces[1]), list(traces[0])]
    for protocol in PROTOCOLS:
        config = tiny_config(
            protocol, machine=MachineParams(nodes=2, cpus_per_node=2)
        )
        fast = simulate(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


def test_runahead_matches_reference_on_an_app_program():
    """End-to-end: a real compiled workload, all four protocols."""
    from repro.common.params import (
        base_ccnuma_config,
        base_rnuma_config,
        base_scoma_config,
        ideal_config,
    )
    from repro.workloads.registry import build_program

    program = build_program("em3d", scale=0.05)
    for config in (
        ideal_config(),
        base_ccnuma_config(),
        base_scoma_config(),
        base_rnuma_config(),
    ):
        fast = simulate(config, program)
        slow = simulate_reference(config, program)
        assert_identical_results(fast, slow)


def test_engines_agree_on_an_app_at_ten_nodes():
    """em3d on ten 4-CPU nodes, run-ahead against the reference.  From
    9 nodes up a Python set of node ids no longer iterates in node
    order, so an invalidation fan-out whose round trip targets "the
    first sharer" diverges unless every engine orders sharers by node
    id."""
    from repro.common.params import (
        base_ccnuma_config,
        base_rnuma_config,
        base_scoma_config,
        ideal_config,
    )
    from repro.workloads.registry import build_program

    machine = MachineParams(nodes=10, cpus_per_node=4)
    program = build_program("em3d", machine=machine, scale=0.05)
    for config in (
        ideal_config(),
        base_ccnuma_config(),
        base_scoma_config(),
        base_rnuma_config(),
    ):
        config = replace(config, machine=machine)
        slow = simulate_reference(config, program)
        assert_identical_results(simulate(config, program), slow)


def _wide_machine_traces(nodes, page_size=512):
    """Deterministic traces for an n-node machine with real sharing:
    every CPU works its own page, reads a hot shared page, and writes
    into a neighbor's page; one barrier splits the run."""
    traces = []
    hot = (nodes // 2) * page_size
    for n in range(nodes):
        own = n * page_size
        neighbor = ((n + 1) % nodes) * page_size
        items = []
        for i in range(18):
            items.append(Access(own + (i * 64) % page_size, i % 5 == 0, i % 3))
            if i % 4 == 0:
                items.append(Access(hot + (i * 64) % page_size, False, 0))
            if i % 6 == 0:
                items.append(Access(neighbor + (i * 64) % page_size, True, 1))
        items.append(Barrier(0))
        items.extend(
            Access(hot + (i * 64) % page_size, i % 7 == 0, 0) for i in range(6)
        )
        traces.append(items)
    return traces


def _engine_matches_reference_at(nodes):
    machine = MachineParams(nodes=nodes, cpus_per_node=1)
    traces = _wide_machine_traces(nodes)
    for protocol in PROTOCOLS:
        config = tiny_config(protocol, machine=machine)
        fast = simulate(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


def test_runahead_matches_reference_at_64_nodes():
    """The wide-machine tier of the directory sweeps: schedule
    exactness must not decay with node count."""
    _engine_matches_reference_at(64)


@pytest.mark.large_n
def test_runahead_matches_reference_at_256_nodes():
    _engine_matches_reference_at(256)
