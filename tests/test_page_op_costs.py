"""Page- and block-operation costs pinned to the paper's Table 2, by hand.

The differential suites compare the run-ahead engine with the frozen
reference, but both share the OS page services (the remote-fault
handlers and R-NUMA's refetch counter among them) and ``CostParams``,
so a cost bug there is invisible to them.  Each row here is one
access on an idle tiny machine (see ``tests/conftest.py``:
2 nodes x 1 CPU, 8 blocks per page, 2-line L1 and block cache, 2-frame
page cache, relocation threshold 2).  A block row that needs a second
CPU on the node, or a third node, widens only the machine.  Its
expected stall is a sum of named ``CostParams`` fields, with the Table 2
entry it comes from.

A row's stall is the node's ``stall_cycles`` after its prefix and the
access, less the same counter after the prefix alone.  The access
thinks ``IDLE`` cycles first, so the bus, the NIs and the home RAD are
free when it issues and no queueing enters its cost.  A block row's
prefix is one trace per CPU, each ending at one barrier, so every CPU's
prefix has acted before the access issues.  A contention row issues two
accesses in the same cycle after that barrier; their summed stall adds
the queueing that the occupancies in ``CostParams`` predict.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

import pytest

from repro.common.params import CostParams, MachineParams
from repro.common.records import Access, Barrier
from repro.sim.engine import simulate

from tests.conftest import TINY_MACHINE, tiny_config

#: First byte of pages 1, 2 and 3, all homed on node 1; node 0 runs
#: every trace, so each of them is a remote page there.
P1, P2, P3 = 512, 1024, 1536
HOMES = {0: 0, 1: 1, 2: 1, 3: 1}
BLOCK = 64
IDLE = 10_000


class Row(NamedTuple):
    protocol: str
    mode: str
    prefix: List[Access]
    access: Access
    expected: Callable[[CostParams], int]
    deltas: Dict[str, int]


def _reads(*addrs: int) -> List[Access]:
    return [Access(a) for a in addrs]


def _refetch_twice(held: int) -> List[Access]:
    """A prefix whose next access ``P1 + 2 * BLOCK`` is page 1's second
    refetch, which reaches the threshold and relocates the page.

    Blocks 8 and 10 share L1 and block-cache set 0, so alternating them
    refetches each.  At the relocation the node holds block 8, plus
    block 9 in set 1 when ``held`` is 2.
    """
    warm = [P1 + BLOCK] if held == 2 else []
    return _reads(*warm, P1, P1 + 2 * BLOCK, P1)


def _page_op(blocks: int) -> Callable[[CostParams], int]:
    # Table 2, "allocation/replacement or relocation" (3000~11500,
    # varying with the blocks flushed): soft trap + TLB shootdown +
    # setup + one flush term per block; then the access's own remote
    # fetch (376).
    return lambda c: (
        c.soft_trap + c.tlb_shootdown + c.page_setup
        + c.flush_per_block * blocks + c.remote_fetch
    )


ROWS = {
    # Table 2, "soft trap" (5 us) to map the page CC-NUMA, then
    # "remote fetch" (376).
    "ccnuma-first-remote-touch": Row(
        "ccnuma", "local", [], Access(P1, think=IDLE),
        lambda c: c.soft_trap + c.remote_fetch,
        {"page_faults": 1, "remote_fetches": 1},
    ),
    # An allocation that flushes nothing (3000).
    "scoma-first-remote-touch": Row(
        "scoma", "local", [], Access(P1, think=IDLE), _page_op(0),
        {"page_faults": 1, "page_allocations": 1, "remote_fetches": 1},
    ),
    # The allocation replaces page 1, flushing its n valid blocks.
    **{
        f"scoma-replace-victim-with-{n}-valid": Row(
            "scoma", "local",
            _reads(*(P1 + BLOCK * i for i in range(n)), P2),
            Access(P3, think=IDLE),
            _page_op(n),
            {"page_replacements": 1, "blocks_flushed": n, "tlb_shootdowns": 1},
        )
        for n in (1, 3, 8)
    },
    # The second refetch relocates page 1 with its k held blocks.  The
    # local mode moves them into the frame instead of flushing them, yet
    # pays the same flush term per block.
    **{
        f"rnuma-relocate-{mode}-{k}-held": Row(
            "rnuma", mode, _refetch_twice(k), Access(P1 + 2 * BLOCK, think=IDLE),
            _page_op(k),
            {
                "refetches": 1,
                "relocations": 1,
                "tlb_shootdowns": 1,
                "blocks_flushed": k if mode == "flush" else 0,
            },
        )
        for mode in ("local", "flush")
        for k in (1, 2)
    },
    # A block the flush relocation sent home is fetched again: Table 2,
    # "remote fetch" (376).  The home forgot the node, so it is not
    # counted as a refetch.
    "rnuma-flush-mode-refetch-of-held-block": Row(
        "rnuma", "flush", _refetch_twice(1) + _reads(P1 + 2 * BLOCK),
        Access(P1, think=IDLE),
        lambda c: c.remote_fetch,
        {"page_cache_misses": 1, "remote_fetches": 1, "refetches": 0},
    ),
    # The local relocation moved the block into the frame: a page-cache
    # hit, Table 2 "local cache fill" (69).
    "rnuma-local-mode-hit-on-held-block": Row(
        "rnuma", "local", _refetch_twice(1) + _reads(P1 + 2 * BLOCK),
        Access(P1, think=IDLE),
        lambda c: c.local_fill,
        {"page_cache_hits": 1, "remote_fetches": 0},
    ),
}

COSTS = {"base": CostParams(), "soft": CostParams().softened()}


def _node0(config, trace, engine):
    return simulate(config, [trace, []], dict(HOMES), engine=engine).stats.node(0)


@pytest.mark.parametrize("costs", sorted(COSTS))
@pytest.mark.parametrize("engine", ["runahead", "reference"])
@pytest.mark.parametrize("name", list(ROWS))
def test_page_operation_cost_matches_table_2(name, engine, costs):
    row = ROWS[name]
    config = tiny_config(
        row.protocol, costs=COSTS[costs], relocation_mode=row.mode
    )
    before = _node0(config, row.prefix, engine)
    after = _node0(config, row.prefix + [row.access], engine)
    assert after.stall_cycles - before.stall_cycles == row.expected(config.costs)
    for counter, delta in row.deltas.items():
        assert getattr(after, counter) - getattr(before, counter) == delta, counter


# ----------------------------------------------------------------------
# block operations
# ----------------------------------------------------------------------

#: Two CPUs on each node, for the intra-node cache-to-cache row.
SMP = MachineParams(nodes=2, cpus_per_node=2)
#: Node 0 requests, node 1 is the home, nodes 2 and 3 hold copies.
FOUR = MachineParams(nodes=4, cpus_per_node=1)


class BlockRow(NamedTuple):
    protocol: str
    machine: MachineParams
    prefix: List[List[Access]]  # every CPU's trace before the access
    cpu: int  # the CPU that makes the access, after its prefix
    access: Access
    expected: Callable[[CostParams], int]
    deltas: Dict[str, int]


BLOCK_ROWS = {
    # Table 2, "local cache fill" (69): a read of a block homed here.
    "local-fill": BlockRow(
        "ccnuma", TINY_MACHINE, [[], []], 0, Access(0, think=IDLE),
        lambda c: c.local_fill,
        {"local_fills": 1, "remote_fetches": 0},
    ),
    # CPU 0 wrote block 0; CPU 1 on the same node reads it, and CPU 0's
    # modified copy answers on the bus: a "local cache fill" (69).
    "intra-node-cache-to-cache": BlockRow(
        "ccnuma", SMP, [[Access(0, is_write=True)], [], [], []], 1,
        Access(0, think=IDLE),
        lambda c: c.local_fill,
        {"cache_to_cache": 1, "local_fills": 1, "remote_fetches": 0},
    ),
    # Node 1 holds block 0, homed here, dirty.  The home's read
    # recalls it: one "remote fetch" (376).
    "local-home-remote-dirty-owner-recalled": BlockRow(
        "ccnuma", TINY_MACHINE, [[], [Access(0, is_write=True)]], 0,
        Access(0, think=IDLE),
        lambda c: c.remote_fetch,
        {"remote_fetches": 1, "local_fills": 0},
    ),
    # Local block 0 displaced block 8 from L1 set 0 but not from the
    # block cache, which holds remote blocks only: "local cache fill"
    # (69), under a finite and under the infinite block cache.
    **{
        f"{protocol}-block-cache-hit": BlockRow(
            protocol, TINY_MACHINE, [_reads(P1, 0), []], 0,
            Access(P1, think=IDLE),
            lambda c: c.local_fill,
            {"block_cache_hits": 1, "local_fills": 1, "remote_fetches": 0},
        )
        for protocol in ("ccnuma", "ideal")
    },
    # Block 9 of a page already mapped CC-NUMA: "remote fetch" (376).
    "clean-remote-fetch": BlockRow(
        "ccnuma", TINY_MACHINE, [_reads(P1), []], 0,
        Access(P1 + BLOCK, think=IDLE),
        lambda c: c.remote_fetch,
        {"block_cache_misses": 1, "remote_fetches": 1, "refetches": 0},
    ),
    # Node 2 holds block 8 dirty, so the home forwards the read to it:
    # three hops.  Table 2 has one "remote fetch" entry (376), and the
    # forward adds nothing to it.
    "dirty-remote-fetch": BlockRow(
        "ccnuma", FOUR, [_reads(P1 + BLOCK), [], [Access(P1, is_write=True)], []], 0,
        Access(P1, think=IDLE),
        lambda c: c.remote_fetch,
        {"block_cache_misses": 1, "remote_fetches": 1, "refetches": 0},
    ),
    # Block 10 displaced block 8 from block-cache set 0, and the home
    # still records that node 0 held it: a refetch, "remote fetch"
    # (376).  CC-NUMA counts no refetch, so it charges nothing more.
    "refetch": BlockRow(
        "ccnuma", TINY_MACHINE, [_reads(P1, P1 + 2 * BLOCK), []], 0,
        Access(P1, think=IDLE),
        lambda c: c.remote_fetch,
        {"refetches": 1, "remote_fetches": 1},
    ),
    # Node 0 and k other nodes read block 8; node 0's write upgrades its
    # shared copy and the home invalidates the k sharers: "remote
    # fetch" (376).  The fan-out occupies the home RAD
    # (``invalidate_per_sharer`` each) but adds no latency for the
    # writer on an idle machine.
    **{
        f"write-upgrade-invalidates-{k}-sharers": BlockRow(
            "ccnuma", FOUR,
            [_reads(P1), [], *(_reads(P1) if n < k else [] for n in range(2))], 0,
            Access(P1, is_write=True, think=IDLE),
            lambda c: c.remote_fetch,
            {"invalidations_sent": k, "remote_fetches": 1, "block_cache_misses": 0},
        )
        for k in (0, 1, 2)
    },
    # CPU 0 wrote block 0 and CPU 1 read it, so CPU 0's copy went from
    # M to O.  CPU 1's write upgrades its own shared copy in place, with
    # no data transfer: "SRAM access" (8).
    "smp-local-write-upgrade": BlockRow(
        "ccnuma", SMP,
        [[Access(0, is_write=True)], [Access(0, think=IDLE)], [], []], 1,
        Access(0, is_write=True, think=IDLE),
        lambda c: c.sram_access,
        {"cache_to_cache": 0, "local_fills": 0, "remote_fetches": 0},
    ),
    # The same steps on block 8 of remote page 1, which node 0 owns.
    # CPU 1 still holds a shared copy, yet CPU 0's owned copy supplies
    # the write: a "local cache fill" (69) and a counted cache-to-cache
    # transfer.  A finding: the owned-write branch asks the peer L1s
    # before the resident copy, where the home write asks the resident
    # copy first.
    "smp-owned-remote-write-upgrade": BlockRow(
        "ccnuma", SMP,
        [[Access(P1, is_write=True)], [Access(P1, think=IDLE)], [], []], 1,
        Access(P1, is_write=True, think=IDLE),
        lambda c: c.local_fill,
        {"cache_to_cache": 1, "local_fills": 1, "remote_fetches": 0},
    ),
    # Local block 0 displaced block 8 from the L1; its page-cache frame
    # still holds it: "local cache fill" (69).
    "scoma-page-cache-hit": BlockRow(
        "scoma", TINY_MACHINE, [_reads(P1, 0), []], 0,
        Access(P1, think=IDLE),
        lambda c: c.local_fill,
        {"page_cache_hits": 1, "local_fills": 1, "remote_fetches": 0},
    ),
}


def _node_stats(config, traces, nid, engine):
    return simulate(config, traces, dict(HOMES), engine=engine).stats.node(nid)


@pytest.mark.parametrize("costs", sorted(COSTS))
@pytest.mark.parametrize("engine", ["runahead", "reference"])
@pytest.mark.parametrize("name", list(BLOCK_ROWS))
def test_block_operation_cost_matches_table_2(name, engine, costs):
    row = BLOCK_ROWS[name]
    config = tiny_config(row.protocol, costs=COSTS[costs], machine=row.machine)
    nid = row.machine.node_of_cpu(row.cpu)
    traces = [trace + [Barrier(0)] for trace in row.prefix]
    before = _node_stats(config, traces, nid, engine)
    traces[row.cpu].append(row.access)
    after = _node_stats(config, traces, nid, engine)
    assert after.stall_cycles - before.stall_cycles == row.expected(config.costs)
    for counter, delta in row.deltas.items():
        assert getattr(after, counter) - getattr(before, counter) == delta, counter


# ----------------------------------------------------------------------
# contention
# ----------------------------------------------------------------------


class PairRow(NamedTuple):
    protocol: str
    machine: MachineParams
    prefix: List[List[Access]]  # every CPU's trace before the accesses
    accesses: Dict[int, Access]  # CPU -> its access, all in one cycle
    expected: Callable[[CostParams], int]


PAIR_ROWS = {
    # CPUs 0 and 1 of node 0 read local blocks 0 and 1 in one cycle.
    # Each pays a "local cache fill" (69); CPU 1 also waits for CPU 0's
    # bus transaction.
    "two-cpus-on-one-bus": PairRow(
        "ccnuma", SMP, [[], [], [], []],
        {0: Access(0, think=IDLE), 1: Access(BLOCK, think=IDLE)},
        lambda c: 2 * c.local_fill + c.bus_occupancy,
    ),
    # Nodes 0 and 2 read blocks of page 1, mapped CC-NUMA by their
    # prefixes, from home node 1 in one cycle.  Each pays a "remote
    # fetch" (376) from its own bus and NI; node 2's request also waits
    # for node 0's at the home RAD.
    "two-nodes-at-one-home": PairRow(
        "ccnuma", FOUR, [_reads(P1 + BLOCK), [], _reads(P1 + BLOCK), []],
        {0: Access(P1, think=IDLE), 2: Access(P1 + 2 * BLOCK, think=IDLE)},
        lambda c: 2 * c.remote_fetch + c.rad_occupancy,
    ),
    # Node 0's write upgrade invalidates k sharers of block 8: node 3,
    # and node 2 when k is 2.  In the same cycle node 3 reads block 10
    # at the same home, and waits for the write's RAD occupancy, which
    # the fan-out lengthens by ``invalidate_per_sharer`` per sharer.
    **{
        f"write-invalidating-{k}-sharers-then-read-at-home": PairRow(
            "ccnuma", FOUR,
            [_reads(P1), [], _reads(P1) if k == 2 else [], _reads(P1 + BLOCK, P1)],
            {
                0: Access(P1, is_write=True, think=IDLE),
                3: Access(P1 + 2 * BLOCK, think=IDLE),
            },
            lambda c, k=k: (
                2 * c.remote_fetch + c.rad_occupancy + k * c.invalidate_per_sharer
            ),
        )
        for k in (1, 2)
    },
}


def _total_stall(config, traces, engine):
    return simulate(config, traces, dict(HOMES), engine=engine).total("stall_cycles")


@pytest.mark.parametrize("costs", sorted(COSTS))
@pytest.mark.parametrize("engine", ["runahead", "reference"])
@pytest.mark.parametrize("name", list(PAIR_ROWS))
def test_same_cycle_pair_queues_by_table_2_occupancies(name, engine, costs):
    row = PAIR_ROWS[name]
    config = tiny_config(row.protocol, costs=COSTS[costs], machine=row.machine)
    traces = [trace + [Barrier(0)] for trace in row.prefix]
    before = _total_stall(config, traces, engine)
    for cpu, access in row.accesses.items():
        traces[cpu].append(access)
    after = _total_stall(config, traces, engine)
    assert after - before == row.expected(config.costs)
