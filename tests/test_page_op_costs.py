"""Page-operation costs pinned to the paper's Table 2, by hand.

The differential suites compare the run-ahead engine with the frozen
reference, but both share the OS page services, the protocol policies
and ``CostParams``, so a cost bug there is invisible to them.  Each row
here is one access on an idle tiny machine (see ``tests/conftest.py``:
2 nodes x 1 CPU, 8 blocks per page, 2-line L1 and block cache, 2-frame
page cache, relocation threshold 2).  Its expected stall is a sum of
named ``CostParams`` fields, with the Table 2 entry it comes from.

A row's stall is the node's ``stall_cycles`` after its prefix and the
access, less the same counter after the prefix alone.  The access
thinks ``IDLE`` cycles first, so the bus, the NIs and the home RAD are
free when it issues and no queueing enters its cost.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

import pytest

from repro.common.params import CostParams
from repro.common.records import Access
from repro.sim.engine import simulate

from tests.conftest import tiny_config

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
