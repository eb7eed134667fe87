"""Differential property test: the per-config specialized miss path
against the frozen reference loop and the run-ahead scheduler.

The specialized engine (:mod:`repro.sim.specialized`) claims that
partially evaluating ``_miss`` against the :class:`SystemConfig` —
folding the protocol policy, topology shape, and directory layout into
generated code, and flattening the hot dicts into integer columns —
changes nothing observable.  Every constant fold is a branch that can
silently go wrong for exactly one configuration corner, so the suite
sweeps the corners: all four protocols, non-uniform fabrics, SMP nodes,
inexact sharer sets, the sparse page-table fallback, and wide machines.
The whole :class:`~repro.sim.results.SimulationResult` must match.

Oracle scope mirrors ``test_directory_repr_differential``: the
reference engine models only the full-map directory, so the specialized
engine is pinned against it on exact-capacity representations and
against the run-ahead engine (same directory implementations, already
differentially pinned) on the inexact limited/coarse ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import MachineParams
from repro.sim import simulate, simulate_reference, simulate_specialized

from tests.conftest import tiny_config
from tests.property.test_directory_repr_differential import INEXACT_PARAMS
from tests.property.test_runahead_differential import (
    PROTOCOLS,
    _wide_machine_traces,
    assert_identical_results,
    programs,
)

pytestmark = pytest.mark.specialized

TOPOLOGIES = ("uniform", "mesh", "fattree")


@given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
@settings(max_examples=200, deadline=None)
def test_specialized_matches_reference(traces, protocol):
    config = tiny_config(protocol)
    fast = simulate_specialized(config, [list(t) for t in traces])
    slow = simulate_reference(config, [list(t) for t in traces])
    assert_identical_results(fast, slow)


@given(
    traces=programs(),
    protocol=st.sampled_from(PROTOCOLS),
    topology=st.sampled_from(TOPOLOGIES),
)
@settings(max_examples=60, deadline=None)
def test_specialized_matches_reference_across_topologies(
    traces, protocol, topology
):
    """The uniform-fabric constant fold is the riskiest single
    specialization (it deletes the traverse() call entirely), so the
    non-uniform fabrics pin the other side of that branch."""
    config = tiny_config(protocol, topology=topology)
    fast = simulate_specialized(config, [list(t) for t in traces])
    slow = simulate_reference(config, [list(t) for t in traces])
    assert_identical_results(fast, slow)


@given(traces=programs())
@settings(max_examples=40, deadline=None)
def test_specialized_matches_reference_multi_cpu_nodes(traces):
    """Two CPUs per node: the generated victim/downgrade closures walk
    every L1 on the node, and the smp fold must keep peer snoops."""
    traces = [list(traces[0]), list(traces[1]), list(traces[1]), list(traces[0])]
    for protocol in PROTOCOLS:
        config = tiny_config(
            protocol, machine=MachineParams(nodes=2, cpus_per_node=2)
        )
        fast = simulate_specialized(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


@given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
@settings(max_examples=60, deadline=None)
def test_specialized_matches_runahead_on_inexact_directories(traces, protocol):
    """Limited-pointer and coarse-vector sharer sets disable the
    inline-directory fold: the generated code must fall back to the
    directory object's methods and still match run-ahead (the oracle
    for inexact representations) bit for bit."""
    for params in INEXACT_PARAMS:
        config = tiny_config(protocol, directory=params)
        fast = simulate_specialized(config, [list(t) for t in traces])
        slow = simulate(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


@given(traces=programs())
@settings(max_examples=20, deadline=None)
def test_specialized_matches_runahead_inexact_multi_cpu_nodes(traces):
    """Inexact sharer sets *and* multiple CPUs per node: region fan-out
    through the generated per-node victim context."""
    traces = [list(traces[0]), list(traces[1]), list(traces[1]), list(traces[0])]
    machine = MachineParams(nodes=2, cpus_per_node=2)
    for protocol in PROTOCOLS:
        for params in INEXACT_PARAMS:
            config = tiny_config(protocol, machine=machine, directory=params)
            fast = simulate_specialized(config, [list(t) for t in traces])
            slow = simulate(config, [list(t) for t in traces])
            assert_identical_results(fast, slow)


@given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
@settings(max_examples=40, deadline=None)
def test_specialized_sparse_page_table_fallback(traces, protocol):
    """Forcing the dense page-map columns off (as a huge address space
    would) must flip the generated code to the dict-backed reads without
    changing a single result field."""
    import repro.sim.specialized as specialized

    saved = specialized.DENSE_BLOCK_LIMIT
    specialized.DENSE_BLOCK_LIMIT = 0
    try:
        config = tiny_config(protocol)
        fast = simulate_specialized(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)
    finally:
        specialized.DENSE_BLOCK_LIMIT = saved


def test_specialized_matches_reference_on_an_app_program():
    """End-to-end: a real compiled workload, all four protocols."""
    from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
    from repro.workloads.registry import build_program

    program = build_program("em3d", scale=0.05)
    for config in (ideal(), cc_config(), scoma_config(), rnuma_config()):
        fast = simulate_specialized(config, program)
        slow = simulate_reference(config, program)
        assert_identical_results(fast, slow)


def test_specialized_is_reset_deterministic():
    """Back-to-back runs on one engine instance: reset() must restore
    every structure the generated closure captured by reference (the
    closure is bound once at construction, so a container identity
    change would silently decouple it from the machine)."""
    from repro.experiments.config import cc_config, rnuma_config
    from repro.sim.specialized import SpecializedEngine
    from repro.workloads.registry import build_program

    program = build_program("em3d", scale=0.05)
    for config in (cc_config(), rnuma_config()):
        engine = SpecializedEngine(config, program)
        first = engine.run()
        engine.reset()
        second = engine.run()
        assert_identical_results(first, second)


def test_specialized_matches_reference_at_64_nodes():
    """The wide-machine tier: bigger sharer masks and owner fields must
    survive the packed-int folds."""
    machine = MachineParams(nodes=64, cpus_per_node=1)
    traces = _wide_machine_traces(64)
    for protocol in PROTOCOLS:
        config = tiny_config(protocol, machine=machine)
        fast = simulate_specialized(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


@pytest.mark.large_n
def test_specialized_matches_reference_at_256_nodes():
    machine = MachineParams(nodes=256, cpus_per_node=1)
    traces = _wide_machine_traces(256)
    for protocol in PROTOCOLS:
        config = tiny_config(protocol, machine=machine)
        fast = simulate_specialized(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)
