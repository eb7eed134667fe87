"""Result reuse is exact: every pair a rule admits is byte-identical.

:mod:`repro.experiments.reuse` lets the executor answer a job from
another job's simulation when that result's witness proves the two
identical.  A wrong rule would put a wrong result in the store under a
correct-looking key, so each rule is checked here the only way that
counts: simulate both sides and compare the payloads byte for byte.

Each test derives a member from a representative by changing one
rule's fields, on random programs for a 4-node machine (the smallest
on which a 2x2 mesh and torus coincide and a limited directory can
overflow).  Whenever :func:`~repro.experiments.reuse.answers` admits
the pair, the answered result must equal the member's own simulation.
Pinned examples make every rule fire under every protocol, and one
sits on the relocation rule's boundary (a threshold equal to the
largest refetch count), which an off-by-one rule gets wrong.
"""

import json
import multiprocessing.pool
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.caches.page_cache import POLICIES
from repro.common.errors import FaultInjected
from repro.common.params import (
    CacheParams,
    DirectoryParams,
    MachineParams,
    RetryPolicy,
    base_ccnuma_config,
    base_scoma_config,
)
from repro.common.records import Access, Barrier
from repro.experiments import reuse
from repro.experiments.executor import (
    Executor,
    ResultStore,
    SweepFailure,
)
from repro.experiments.runner import Job
from repro.experiments.reuse import answers
from repro.faults import injection
from repro.sim.engine import simulate

from tests.conftest import TINY_SPACE, tiny_config

PROTOCOLS = ("ccnuma", "scoma", "rnuma", "ideal")
NODES = 4
PAGE = TINY_SPACE.page_size
BLOCK = TINY_SPACE.block_size
APP = "random"

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def config(protocol, **overrides):
    overrides.setdefault("machine", MachineParams(nodes=NODES, cpus_per_node=1))
    return tiny_config(protocol, **overrides)


@st.composite
def programs(draw, nodes=NODES):
    """One trace per CPU over a shared barrier skeleton; few pages, so
    page caches fill, counters climb and sharer sets overflow."""
    addresses = st.integers(min_value=0, max_value=draw(st.integers(1, 6)) * PAGE - 1)
    accesses = st.tuples(addresses, st.booleans(), st.integers(0, 5))
    n_barriers = draw(st.integers(min_value=0, max_value=2))
    traces = []
    for _ in range(nodes):
        items = []
        for k in range(n_barriers + 1):
            stretch = draw(st.lists(accesses, max_size=30))
            items.extend(Access(a, w, th) for a, w, th in stretch)
            if k < n_barriers:
                items.append(Barrier(k))
        traces.append(items)
    return traces


def _read(addr):
    return Access(addr, False, 1)


#: Node 0 homes page 0 (first touch); nodes 1 and 2 read its block 0:
#: two sharers, one remote page each.
SHARED_READS = [
    [Access(0, True, 1), Barrier(0)],
    [Barrier(0), _read(0)],
    [Barrier(0), _read(0)],
    [Barrier(0)],
]
#: Node 1 reads blocks 0 and 2 of node 0's page 0 alternately; they
#: share a set in its 2-line L1 and block cache, so the second pass
#: refetches both: two refetches of page 0 (m = 2).
REFETCHES = [
    [Access(0, True, 1), Barrier(0)],
    [Barrier(0), _read(0), _read(2 * BLOCK), _read(0), _read(2 * BLOCK)],
    [Barrier(0)],
    [Barrier(0)],
]
#: Node 1 reads two pages of node 0: two page frames' worth.
TWO_PAGES = [
    [Access(0, True, 1), Access(PAGE, True, 1), Barrier(0)],
    [Barrier(0), _read(0), _read(PAGE), _read(0)],
    [Barrier(0)],
    [Barrier(0)],
]
#: On 8 nodes (a 2x4 grid) node 3 reads node 0's page: 3 mesh hops,
#: 1 torus hop across the wrap link.
WRAP_READ = [[Access(0, True, 1), Barrier(0)], [Barrier(0)], [Barrier(0)],
             [Barrier(0), _read(0)]] + [[Barrier(0)]] * 4


def payload(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def assert_exact_reuse(program, rep, member) -> bool:
    """Simulate ``rep``; if its result admits ``member``, simulate the
    member too and require the answer to be its payload byte for byte.
    Returns whether the pair was admitted."""
    result = simulate(rep, [list(t) for t in program])
    if not answers(Job(APP, rep), result, Job(APP, member)):
        return False
    own = simulate(member, [list(t) for t in program])
    assert payload(replace(result, config=member)) == payload(own)
    return True


def page_cache_pair(protocol, frames, policy, member_frames, member_policy):
    rep = config(
        protocol,
        caches=CacheParams(
            l1_size=128,
            block_cache_size=128,
            page_cache_size=frames * PAGE,
            page_replacement=policy,
        ),
    )
    member = replace(
        rep,
        caches=replace(
            rep.caches,
            page_cache_size=member_frames * PAGE,
            page_replacement=member_policy,
        ),
    )
    return rep, member


def relocation_pair(protocol, threshold, mode, member_threshold, member_mode):
    rep = config(protocol, relocation_threshold=threshold, relocation_mode=mode)
    member = replace(
        rep, relocation_threshold=member_threshold, relocation_mode=member_mode
    )
    return rep, member


def directory_pair(protocol, pointers, overflow, member):
    rep = config(
        protocol,
        directory=DirectoryParams("limited", pointers=pointers, overflow=overflow),
    )
    return rep, replace(rep, directory=member)


def topology_pair(protocol, topology, nodes=NODES):
    other = {"mesh": "torus", "torus": "mesh"}[topology]
    machine = MachineParams(nodes=nodes, cpus_per_node=1)
    rep = config(protocol, topology=topology, machine=machine)
    return rep, replace(rep, topology=other)


PAIRS = {
    "page cache": page_cache_pair,
    "relocation": relocation_pair,
    "directory": directory_pair,
    "topology": topology_pair,
}

#: rule -> (program, pair parameters) that the rule admits, at least
#: one per protocol.
PINNED = {
    "page cache": [
        # Unused: a smaller page cache answers too.
        (SHARED_READS, dict(protocol="ccnuma", frames=2, policy="lrm",
                            member_frames=1, member_policy="fifo")),
        (SHARED_READS, dict(protocol="ideal", frames=2, policy="lrm",
                            member_frames=1, member_policy="lru")),
        # One frame held one remote page each: nothing replaced.
        (SHARED_READS, dict(protocol="scoma", frames=1, policy="lrm",
                            member_frames=3, member_policy="lru")),
        # T=2 relocates page 0 into node 1's single frame.
        (REFETCHES, dict(protocol="rnuma", frames=1, policy="fifo",
                         member_frames=2, member_policy="lrm")),
    ],
    "relocation": [
        (REFETCHES, dict(protocol="ccnuma", threshold=1, mode="local",
                         member_threshold=9, member_mode="flush")),
        (REFETCHES, dict(protocol="scoma", threshold=1, mode="local",
                         member_threshold=9, member_mode="flush")),
        (REFETCHES, dict(protocol="ideal", threshold=1, mode="flush",
                         member_threshold=2, member_mode="local")),
        # m = 2 and nothing relocated at T=5: T'=3 answers.
        (REFETCHES, dict(protocol="rnuma", threshold=5, mode="local",
                         member_threshold=3, member_mode="flush")),
    ],
    "directory": [
        (SHARED_READS, dict(protocol=protocol, pointers=2, overflow=overflow,
                            member=member))
        for protocol, overflow, member in (
            ("ccnuma", "broadcast", DirectoryParams()),
            ("scoma", "evict", DirectoryParams("limited", 3, "broadcast")),
            ("rnuma", "broadcast", DirectoryParams("limited", 2, "evict")),
            ("ideal", "evict", DirectoryParams()),
        )
    ],
    "topology": [
        (SHARED_READS, dict(protocol=protocol, topology=topology, nodes=NODES))
        for protocol, topology in zip(PROTOCOLS, ("mesh", "torus") * 2)
    ],
}

#: rule -> (program, pair parameters) one step past what the rule
#: admits: refused, and a different result.
BOUNDARY = {
    # Two frames held two pages; one frame must replace.
    "page cache": (TWO_PAGES, dict(protocol="scoma", frames=2, policy="lrm",
                                   member_frames=1, member_policy="lrm")),
    # m = 2, and at T'=m the second refetch relocates.
    "relocation": (REFETCHES, dict(protocol="rnuma", threshold=5, mode="local",
                                   member_threshold=2, member_mode="local")),
    # Two sharers fit two pointers; one pointer evicts the first.
    "directory": (SHARED_READS, dict(protocol="ccnuma", pointers=2, overflow="evict",
                                     member=DirectoryParams("limited", 1, "evict"))),
    # A 2x4 mesh and torus differ in the wrap links.
    "topology": (WRAP_READ, dict(protocol="ccnuma", topology="mesh", nodes=8)),
}


def pinned(rule):
    def apply(test):
        for program, params in PINNED[rule] + [BOUNDARY[rule]]:
            test = example(program=program, **params)(test)
        return test

    return apply


@pinned("page cache")
@given(
    program=programs(),
    protocol=st.sampled_from(PROTOCOLS),
    frames=st.integers(1, 4),
    policy=st.sampled_from(POLICIES),
    member_frames=st.integers(1, 6),
    member_policy=st.sampled_from(POLICIES),
)
@SETTINGS
def test_page_cache_rule(program, protocol, frames, policy, member_frames,
                         member_policy):
    assert_exact_reuse(
        program,
        *page_cache_pair(protocol, frames, policy, member_frames, member_policy),
    )


@pinned("relocation")
@given(
    program=programs(),
    protocol=st.sampled_from(PROTOCOLS),
    threshold=st.integers(1, 6),
    mode=st.sampled_from(("local", "flush")),
    member_threshold=st.integers(1, 8),
    member_mode=st.sampled_from(("local", "flush")),
)
@SETTINGS
def test_relocation_rule(program, protocol, threshold, mode, member_threshold,
                         member_mode):
    assert_exact_reuse(
        program,
        *relocation_pair(protocol, threshold, mode, member_threshold, member_mode),
    )


directories = st.one_of(
    st.just(DirectoryParams()),
    st.builds(
        DirectoryParams,
        representation=st.just("limited"),
        pointers=st.integers(1, NODES),
        overflow=st.sampled_from(("broadcast", "evict")),
    ),
    st.builds(
        DirectoryParams,
        representation=st.just("coarse"),
        region_size=st.integers(1, NODES),
    ),
)


@pinned("directory")
@given(
    program=programs(),
    protocol=st.sampled_from(PROTOCOLS),
    pointers=st.integers(1, 3),
    overflow=st.sampled_from(("broadcast", "evict")),
    member=directories,
)
@SETTINGS
def test_directory_rule(program, protocol, pointers, overflow, member):
    assert_exact_reuse(program, *directory_pair(protocol, pointers, overflow, member))


@pinned("topology")
@given(
    program=programs(nodes=8),
    protocol=st.sampled_from(PROTOCOLS),
    topology=st.sampled_from(("mesh", "torus")),
    nodes=st.sampled_from((2, 4, 8)),
)
@settings(SETTINGS, max_examples=20)
def test_topology_rule(program, protocol, topology, nodes):
    """Static: admitted exactly when the grid has no dimension over 2."""
    pair = topology_pair(protocol, topology, nodes)
    assert assert_exact_reuse(program[:nodes], *pair) == (nodes <= 4)


@pytest.mark.parametrize("rule", sorted(PINNED))
def test_pinned_examples_fire_the_rule_under_every_protocol(rule):
    for program, params in PINNED[rule]:
        rep, member = PAIRS[rule](**params)
        assert rep != member
        assert assert_exact_reuse(program, rep, member), params
    assert {params["protocol"] for _, params in PINNED[rule]} == set(PROTOCOLS)


@pytest.mark.parametrize("rule", sorted(BOUNDARY))
def test_one_step_past_each_rule_is_refused_and_would_be_wrong(rule):
    program, params = BOUNDARY[rule]
    rep, member = PAIRS[rule](**params)
    result = simulate(rep, [list(t) for t in program])
    assert not answers(Job(APP, rep), result, Job(APP, member))
    own = simulate(member, [list(t) for t in program])
    assert payload(replace(result, config=member)) != payload(own)


def test_admitting_a_threshold_equal_to_m_fails_the_suite(monkeypatch):
    """Mutation check: with the off-by-one rule T' >= m (here, m read
    one lower), the relocation suite must fail."""
    exact = reuse.max_refetch_count
    monkeypatch.setattr(reuse, "max_refetch_count", lambda result: exact(result) - 1)
    with pytest.raises(AssertionError):
        test_relocation_rule()


def test_group_key_separates_what_no_rule_frees():
    base = Job(APP, config("rnuma"))
    assert reuse.group_key(base) == reuse.group_key(
        Job(APP, replace(base.config, relocation_threshold=99, topology="uniform"))
    )
    for other in (
        Job("other", base.config),
        Job(APP, base.config, scale=0.5),
        Job(APP, replace(base.config, protocol="scoma")),
        Job(APP, replace(base.config, topology="ring")),
        Job(APP, replace(base.config, caches=replace(base.config.caches, l1_size=256))),
    ):
        assert reuse.group_key(other) != reuse.group_key(base)
    # A mesh and a torus are one graph only while no dimension exceeds 2.
    for nodes, same in ((2, True), (4, True), (8, False)):
        mesh = config("ccnuma", topology="mesh",
                      machine=MachineParams(nodes=nodes, cpus_per_node=1))
        torus = Job(APP, replace(mesh, topology="torus"))
        assert (reuse.group_key(Job(APP, mesh)) == reuse.group_key(torus)) is same


def test_a_store_loaded_result_answers_no_directory_member(tmp_path):
    """The overflow witness is not stored: after a round trip through
    the store the result still answers page-cache members, but no
    directory member."""
    program, params = PINNED["directory"][1]  # S-COMA: a page-cache witness
    rep, member = directory_pair(**params)
    rep_job, member_job = Job(APP, rep), Job(APP, member)
    fresh = simulate(rep, [list(t) for t in program])
    assert fresh.directory_overflows == 0
    assert answers(rep_job, fresh, member_job)

    store = ResultStore(tmp_path)
    store.save(rep_job, fresh)
    loaded = store.load(rep_job)
    assert loaded == fresh and loaded.directory_overflows is None
    assert not answers(rep_job, loaded, member_job)
    bigger = Job(APP, replace(rep, caches=replace(rep.caches, page_cache_size=8 * PAGE)))
    assert answers(rep_job, loaded, bigger)


# -- the executor's reuse plan ---------------------------------------------

SCALE = 0.05
APP_JOB = "em3d"


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv(injection.ENV_VAR, raising=False)
    injection.reset_counters()


def _job(page_cache=320 * 1024, directory=DirectoryParams()):
    config = base_ccnuma_config()
    caches = replace(config.caches, page_cache_size=page_cache)
    return Job(APP_JOB, replace(config, caches=caches, directory=directory), SCALE)


def test_executor_answers_a_member_under_its_own_key(tmp_path):
    rep, member = _job(64 * 1024), _job(640 * 1024)
    seen = []
    exe = Executor(
        store=ResultStore(tmp_path),
        progress=lambda done, total, job, source: seen.append((job.key, source)),
    )
    results = exe.run([member, rep])
    assert seen == [(rep.key, "simulated"), (member.key, "reused")]
    assert [r.config for r in results] == [member.config, rep.config]
    assert payload(results[0]) == payload(
        simulate(member.config, _program(member))
    )
    assert exe.store.load(member).config == member.config
    manifest = json.loads(exe.write_manifest([member, rep]).read_text())
    assert manifest["sources"] == {
        "simulated": 1, "reused": 1, "store": 0, "failed": 0,
    }


def _program(job):
    from repro.workloads.registry import build_program

    return build_program(
        job.app, machine=job.config.machine, space=job.config.space, scale=job.scale
    )


def test_a_failed_representative_leaves_its_group_to_a_follow_up(monkeypatch):
    """Plan index 0 (the representative) crashes for good; the member,
    plan index 1, is queued as the group's follow-up, which the fault
    does not match."""
    monkeypatch.setenv(injection.ENV_VAR, "worker-raise:index=0")
    rep, member = _job(64 * 1024), _job(640 * 1024)
    exe = Executor(retry=RetryPolicy(retries=0, backoff=0.0))
    with pytest.raises(SweepFailure) as info:
        exe.run([rep, member])
    (failure,) = info.value.failures
    assert failure.key == repr(rep.key)
    assert FaultInjected.__name__ in failure.error
    assert [p["source"] for p in exe.job_profiles] == ["failed", "simulated"]
    assert exe.cache[member.key].config == member.config


def _scoma(page_cache, scale=SCALE):
    """An S-COMA job of em3d.  At 4 KB it replaces pages, so its result
    answers no larger page cache, and the group's next job is a
    follow-up; at 64 KB it replaces none."""
    return Job(APP_JOB, base_scoma_config(page_cache), scale)


def test_follow_ups_join_the_one_running_pool(monkeypatch):
    """Two groups, each with a follow-up: one pool runs all four jobs."""
    pools = []

    class CountingPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("multiprocessing.Pool", CountingPool)
    jobs = [_scoma(kb * 1024, scale) for scale in (SCALE, 2 * SCALE) for kb in (4, 64)]
    exe = Executor(workers=2)
    exe.run(jobs)
    assert [p["source"] for p in exe.job_profiles] == ["simulated"] * 4
    assert len(pools) == 1


def test_nothing_pending_starts_no_pool(monkeypatch, tmp_path):
    """Cache hits, store hits and members the store's results answer
    need no worker, even with a deadline set."""
    small, large = _scoma(64 * 1024), _scoma(128 * 1024)
    Executor(store=ResultStore(tmp_path)).run([small])

    def no_pool(*args, **kwargs):
        raise AssertionError("started a worker pool with nothing pending")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    exe = Executor(
        workers=2, store=ResultStore(tmp_path), retry=RetryPolicy(job_timeout=60.0)
    )
    exe.run([small, large])
    exe.run([small, large])
    assert [p["source"] for p in exe.job_profiles] == [
        "store", "reused", "cache", "cache",
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_fault_index_names_the_same_follow_up_at_any_worker_count(
    monkeypatch, workers
):
    """The plan numbers group A's jobs 0 (4 KB) and 1 (64 KB) and group
    B's job 2.  Index 1 is A's follow-up, queued only once index 0 has
    resolved, and it is the job that fails."""
    monkeypatch.setenv(injection.ENV_VAR, "worker-raise:index=1")
    a_rep, a_follow_up = _scoma(4 * 1024), _scoma(64 * 1024)
    b_rep = _scoma(4 * 1024, 2 * SCALE)
    exe = Executor(workers=workers, retry=RetryPolicy(retries=0, backoff=0.0))
    with pytest.raises(SweepFailure) as info:
        exe.run([a_rep, b_rep, a_follow_up])
    (failure,) = info.value.failures
    assert failure.key == repr(a_follow_up.key)
    assert exe.cache.keys() == {a_rep.key, b_rep.key}


def test_a_store_loaded_witness_answers_page_cache_but_not_directory(tmp_path):
    """A limited directory with a pointer per node never overflows, but
    once the result comes from the store nothing says so."""
    limited = DirectoryParams("limited", pointers=base_ccnuma_config().machine.nodes)
    rep = _job(directory=limited)
    Executor(store=ResultStore(tmp_path)).run([rep])
    exe = Executor(store=ResultStore(tmp_path))
    exe.run([rep, _job(64 * 1024, directory=limited), _job()])
    assert [p["source"] for p in exe.job_profiles] == ["store", "reused", "simulated"]
    fresh = Executor()
    fresh.run([rep, _job()])
    assert [p["source"] for p in fresh.job_profiles] == ["simulated", "reused"]
