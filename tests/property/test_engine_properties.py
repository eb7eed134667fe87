"""Property-based tests for the simulation engine on random traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import Access, Barrier
from repro.sim.engine import simulate

from tests.conftest import tiny_config

# Addresses span 4 pages of the tiny 512-byte-page space.
addresses = st.integers(min_value=0, max_value=4 * 512 - 1)
accesses = st.tuples(addresses, st.booleans(), st.integers(min_value=0, max_value=5))


def build_traces(items0, items1, with_barrier):
    t0 = [Access(a, w, th) for a, w, th in items0]
    t1 = [Access(a, w, th) for a, w, th in items1]
    if with_barrier:
        mid0, mid1 = len(t0) // 2, len(t1) // 2
        t0.insert(mid0, Barrier(0))
        t1.insert(mid1, Barrier(0))
    return [t0, t1]


@st.composite
def trace_pairs(draw):
    items0 = draw(st.lists(accesses, max_size=60))
    items1 = draw(st.lists(accesses, max_size=60))
    with_barrier = draw(st.booleans())
    return build_traces(items0, items1, with_barrier)


@given(traces=trace_pairs(), protocol=st.sampled_from(["ccnuma", "scoma", "rnuma", "ideal"]))
@settings(max_examples=150, deadline=None)
def test_engine_completes_and_accounts_every_access(traces, protocol):
    config = tiny_config(protocol)
    result = simulate(config, [list(t) for t in traces])
    n_accesses = sum(1 for t in traces for i in t if isinstance(i, Access))
    assert result.total("l1_hits") + result.total("l1_misses") == n_accesses
    assert result.exec_cycles >= 0
    assert all(f >= 0 for f in result.cpu_finish_times)


@given(traces=trace_pairs(), protocol=st.sampled_from(["ccnuma", "scoma", "rnuma"]))
@settings(max_examples=75, deadline=None)
def test_engine_is_deterministic(traces, protocol):
    config = tiny_config(protocol)
    r1 = simulate(config, [list(t) for t in traces])
    r2 = simulate(config, [list(t) for t in traces])
    assert r1.exec_cycles == r2.exec_cycles
    assert r1.stats.as_dict() == r2.stats.as_dict()


@given(traces=trace_pairs())
@settings(max_examples=75, deadline=None)
def test_refetches_never_exceed_remote_fetches(traces):
    result = simulate(tiny_config("ccnuma"), [list(t) for t in traces])
    assert result.total("refetches") <= result.total("remote_fetches")


@given(traces=trace_pairs())
@settings(max_examples=75, deadline=None)
def test_ideal_never_refetches(traces):
    result = simulate(tiny_config("ideal"), [list(t) for t in traces])
    assert result.total("refetches") == 0


@given(traces=trace_pairs())
@settings(max_examples=75, deadline=None)
def test_scoma_page_cache_never_over_capacity(traces):
    from repro.sim.engine import SimulationEngine

    config = tiny_config("scoma")
    engine = SimulationEngine(config, [list(t) for t in traces])
    engine.run()
    for node in engine.machine.nodes:
        assert len(node.page_cache) <= node.page_cache.capacity
        # Every resident page is S-mapped with tags.
        for page in node.page_cache.resident_pages():
            assert node.tags.is_mapped(page)


@given(traces=trace_pairs())
@settings(max_examples=75, deadline=None)
def test_exec_time_at_least_busy_time_of_slowest_cpu(traces):
    result = simulate(tiny_config("ccnuma"), [list(t) for t in traces])
    for cpu, t in enumerate(result.cpu_finish_times):
        assert t <= result.exec_cycles
