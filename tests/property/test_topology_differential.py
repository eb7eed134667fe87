"""Differential tests anchoring the topology subsystem.

Two separate claims need pinning:

1. **The uniform topology is the pre-topology network, bit for bit.**
   ``_LegacyNetwork`` below is a frozen transcription of the seed's
   fixed-latency ``Network`` (NI acquire, constant-latency arrival,
   RAD acquire — nothing else); hypothesis drives both models with the
   same message streams and requires identical delays and identical
   resource clocks.  Paper figures all run on ``uniform``, so this is
   what guarantees every reproduction is unchanged by this subsystem.

2. **The run-ahead scheduler stays schedule-exact on non-uniform
   fabrics.**  Link charging happens inside the shared miss path, but
   it moves event times around — exactly the thing that could expose a
   drain-order bug — so the engine-vs-reference differential is run
   across every topology x all four protocols.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import CostParams
from repro.common.records import Access, Barrier
from repro.interconnect.network import Network
from repro.interconnect.resource import BusyResource
from repro.interconnect.topology import topology_names
from repro.sim.engine import simulate

from tests.conftest import tiny_config
from tests.property.test_runahead_differential import assert_identical_results

NODES = 8
PROTOCOLS = ("ccnuma", "scoma", "rnuma", "ideal")


class _LegacyNetwork:
    """The seed's fixed-latency model, transcribed verbatim."""

    def __init__(self, nodes: int, costs: CostParams) -> None:
        self.nodes = nodes
        self.latency = costs.network_latency
        self._costs = costs
        self.nis = [BusyResource(f"ni{n}") for n in range(nodes)]
        self.rads = [BusyResource(f"rad{n}") for n in range(nodes)]
        self.messages = 0

    def round_trip_delay(self, src, dst, now, extra_home_occupancy=0):
        self.messages += 1
        wait = self.nis[src].acquire(now, self._costs.ni_occupancy)
        arrive = now + wait + self._costs.ni_occupancy + self.latency
        wait += self.rads[dst].acquire(
            arrive, self._costs.rad_occupancy + extra_home_occupancy
        )
        return wait

    def one_way_delay(self, src, now):
        self.messages += 1
        return self.nis[src].acquire(now, self._costs.ni_occupancy)


message_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NODES - 1),
        st.integers(min_value=0, max_value=NODES - 1),
        st.booleans(),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=60),
    ),
    max_size=80,
)


@given(stream=message_stream)
@settings(max_examples=150, deadline=None)
def test_uniform_network_is_bit_identical_to_legacy_model(stream):
    costs = CostParams()
    new = Network(NODES, costs, topology="uniform")
    old = _LegacyNetwork(NODES, costs)

    now = 0
    for src, dst, one_way, gap, extra in stream:
        now += gap
        if one_way:
            # The topology-aware signature grew a dst parameter; on
            # uniform it must change nothing.
            assert new.one_way_delay(src, now, dst=dst) == old.one_way_delay(
                src, now
            )
        else:
            assert new.round_trip_delay(
                src, dst, now, extra_home_occupancy=extra
            ) == old.round_trip_delay(src, dst, now, extra_home_occupancy=extra)

    assert new.messages == old.messages
    # The device clocks themselves must agree, not just the returned
    # delays — a divergent free_at would only bite on a later message.
    assert [r.free_at for r in new.nis] == [r.free_at for r in old.nis]
    assert [r.free_at for r in new.rads] == [r.free_at for r in old.rads]
    assert not new.links


# Conflict-heavy tiny-geometry traces, as in the run-ahead differential.
addresses = st.integers(min_value=0, max_value=8 * 512 - 1)
accesses = st.tuples(
    addresses, st.booleans(), st.integers(min_value=0, max_value=5)
)


@st.composite
def programs(draw):
    n_barriers = draw(st.integers(min_value=0, max_value=2))
    traces = []
    for _ in range(2):
        items = []
        for k in range(n_barriers + 1):
            stretch = draw(st.lists(accesses, max_size=30))
            items.extend(Access(a, w, th) for a, w, th in stretch)
            if k < n_barriers:
                items.append(Barrier(k))
        traces.append(items)
    return traces


@given(
    traces=programs(),
    topology=st.sampled_from(topology_names()),
    protocol=st.sampled_from(PROTOCOLS),
)
@settings(max_examples=120, deadline=None)
def test_runahead_matches_reference_on_every_topology(traces, topology, protocol):
    config = tiny_config(protocol, topology=topology)
    fast = simulate(config, [list(t) for t in traces])
    slow = simulate(config, [list(t) for t in traces], engine="reference")
    assert_identical_results(fast, slow)


def test_runahead_matches_reference_on_an_app_across_topologies():
    """End-to-end: a real workload on every fabric, all four protocols."""
    from dataclasses import replace

    from repro.common.params import (
        base_ccnuma_config,
        base_rnuma_config,
        base_scoma_config,
        ideal_config,
    )
    from repro.workloads.registry import build_program

    program = build_program("em3d", scale=0.05)
    for topology in topology_names():
        for base in (
            ideal_config(),
            base_ccnuma_config(),
            base_scoma_config(),
            base_rnuma_config(),
        ):
            config = replace(base, topology=topology)
            fast = simulate(config, program)
            slow = simulate(config, program, engine="reference")
            assert_identical_results(fast, slow)
