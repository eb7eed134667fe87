"""Trace-driven simulation engine.

Drives one trace per processor through the machine model:

- per-processor clocks advanced through a min-heap scheduler with a
  *run-ahead* inner loop (see below);
- an inlined L1 fast path (hits are the overwhelming majority of
  references and must stay cheap in pure Python);
- a full miss path implementing the intra-node MOESI snoop, the three
  remote-caching strategies (block cache / page cache / local memory),
  the inter-node directory protocol with refetch detection, and the OS
  services (faults, allocation, replacement, relocation);
- busy-until contention for the node bus, network interfaces, home
  protocol controllers, and (on non-uniform topologies) the fabric
  links along each message's precomputed route; every round trip is
  charged by :meth:`repro.interconnect.network.Network.round_trip_delay`,
  the one method both engines call;
- global barriers.

Run-ahead scheduling
--------------------

The classic loop pays one ``heappop`` + ``heappush`` and several
attribute loads per memory reference.  This engine instead *drains* a
processor after popping it: it keeps executing that CPU's references in
a tight local-variable loop for as long as the CPU's next event,
ordered as the tuple ``(time, cpu)``, would sort before the current
heap head — i.e. for as long as the classic loop would have popped this
CPU right back.  No other processor may act before the heap head, so
the drained schedule is *exactly* the heap schedule (ties included:
tuple order breaks them by CPU id in both).  L1 hit and busy counters
accumulate in locals during a drain and flush to :class:`NodeStats`
once per run, so the dominant path touches no heap and no attribute.
The drain crosses misses too — a miss just advances the CPU's clock
further — and stops only at a barrier, at end-of-trace, or when
another CPU's event comes first.  One loop serves every case: an empty
heap reads as an unreachable head, so a CPU alone on the machine
drains without a heap operation until its barrier, and only the
arrival that finds the heap empty completes a barrier.  See
docs/architecture.md ("Scheduler") for the invariant written out.

Columnar miss path
------------------

The miss path allocates no objects.  The directory returns a packed
outcome int (refetch bit, previous owner, invalidation bitmask — see
:mod:`repro.coherence.directory`) decoded with shifts; sharers iterate
via ``mask & -mask`` bit tricks.  The home node's own directory
accesses are inlined on the directory's columns for every
representation; a remote request is inlined for the exact full map
and calls the directory's method otherwise.  The block cache is read
and written in its ``(mask, block_at, writable_at, dirty_at)``
columns, which the finite, the infinite (ideal) and the zero-frame
caches all expose, so every protocol takes the same path.  Page-cache
recency moves are array-index relinks, and L1 victims are read
straight out of the L1 arrays instead of materializing (block, state)
tuples.  A miss the node cannot serve reaches the home through one
fetch-and-install tail.  Hot cross-object references (costs,
directory, network) are bound once at construction.  See docs/architecture.md ("Memory-system state layout",
"Life of an L1 miss").

Traces are consumed in their packed columnar form (one ``array('q')``
of 64-bit words per CPU, see :mod:`repro.common.records`): the hot
loop classifies an item by its sign bit and unpacks the address/think/
write fields with shifts, so a compiled program runs with no per-run
conversion pass.  Any other trace input is compiled into a
:class:`~repro.workloads.compile.CompiledProgram` at engine
construction, which packs it and checks its barriers.  A program was
checked when it was built, so replaying it across the four protocols
of a sweep checks nothing again.

L1 state lives in preallocated arrays (:mod:`repro.caches.l1`), so the
inlined hit check is two C-speed array loads.  The buffers keep their
identity for the life of a cache, which lets the drain loop hoist them
into locals.

Timing constants come from :class:`repro.common.params.CostParams`
(the paper's Table 2).

:class:`repro.sim.reference.ReferenceEngine` retains the classic
one-event-per-reference loop *and* the pre-columnar set/dict/object
structures (:mod:`repro.sim.legacy`) as the differential-testing
oracle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from repro.caches.finegrain import BLOCK_INVALID, BLOCK_READONLY, BLOCK_WRITABLE
from repro.caches.l1 import EMPTY as L1_EMPTY
from repro.coherence.directory import (
    Directory,
    NO_OWNER,
    OUT_INVAL_SHIFT,
    OUT_OWNER_MASK,
    OUT_OWNER_SHIFT,
)
from repro.coherence.states import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    OWNED,
    SHARED,
)
from repro.common.errors import TraceError
from repro.common.params import SystemConfig
from repro.common.records import ADDR_SHIFT, THINK_MASK
from repro.machine.machine import Machine
from repro.machine.node import Node
from repro.osint.placement import resolve_home
from repro.osint.services import allocate_scoma_page, count_refetch, map_cc_page
from repro.sim.results import SimulationResult
from repro.vm.page_table import MAP_CC, MAP_LOCAL, MAP_SCOMA, MAP_UNMAPPED
from repro.workloads.compile import CompiledProgram

# The drain loop encodes MOESI facts as arithmetic: INVALID must be
# falsy, and "write hit without a bus transaction" must be expressible
# as ``st >= MODIFIED or st == EXCLUSIVE``.  Pin the values those
# shortcuts depend on so a states.py edit cannot silently corrupt the
# fast path.
assert (INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED) == (0, 1, 2, 3, 4), (
    "engine fast path assumes the canonical MOESI encoding"
)

#: The head an empty heap reads as in the drain loop: an event no clock
#: reaches.  Were one to pass it, ``heappushpop`` on the empty heap would
#: hand the same cpu straight back, so the schedule would still be exact.
NO_HEAD = 1 << 62


class SimulationEngine:
    """One simulation run: a machine, its protocol's OS actions, and a
    compiled program.

    An engine runs once: :meth:`run` consumes the fresh machine built
    at construction, and :func:`simulate` builds a new engine per call.

    ``traces`` is a :class:`~repro.workloads.compile.CompiledProgram`,
    whose columns, memoized first-touch map and memoized profile the
    engine reads directly.  Anything else — packed columns, TraceViews
    or per-CPU Access/Barrier sequences — is compiled into one at
    construction, which packs it and checks its barriers.

    After :meth:`run`, ``sched_stats`` holds scheduler-level counters
    (references executed, heap pops/pushes, drain count) from which
    the scheduler tests derive heap-ops-per-reference and mean
    run-ahead length.
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Sequence[object]],
        homes: Optional[Dict[int, int]] = None,
    ) -> None:
        self.config = config
        self.machine = Machine(config)
        # The four systems share one coherence protocol and differ only
        # in what the OS does (paper Sections 2-3): S-COMA gives a
        # remote page a page-cache frame on its first touch, the others
        # map it CC, and only R-NUMA counts refetches.
        self._map_remote_page = (
            allocate_scoma_page if config.protocol == "scoma" else map_cc_page
        )
        self._counts_refetches = config.protocol == "rnuma"
        if not isinstance(traces, CompiledProgram):
            # A barrier mismatch must fail here, not as a deadlock.
            traces = CompiledProgram("traces", traces=traces)
        self.program = traces
        self._columns = traces.columns
        if len(self._columns) != config.machine.total_cpus:
            raise TraceError(
                f"expected {config.machine.total_cpus} traces, "
                f"got {len(self._columns)}"
            )
        space = config.space
        if homes is None:
            # Copied: the engine adds late first-touches to its map.
            homes = dict(traces.first_touch_homes(config.machine, space))
        self.homes = homes

        # Pre-map every page at its home node.
        for page, home in homes.items():
            self.machine.nodes[home].page_table.map_local(page)

        # Per-CPU wiring.
        mp = config.machine
        self._node_of_cpu = [mp.node_of_cpu(c) for c in range(mp.total_cpus)]
        self._l1_of_cpu = []
        self._cpu_slot = []  # index of the cpu within its node
        for c in range(mp.total_cpus):
            node = self.machine.nodes[self._node_of_cpu[c]]
            slot = c % mp.cpus_per_node
            self._l1_of_cpu.append(node.l1s[slot])
            self._cpu_slot.append(slot)

        # Per-CPU miss context: everything _miss needs that is fixed
        # for the run, gathered behind one list index.  No structure
        # replaces any member while the engine runs.
        self._mctx = []
        for c in range(mp.total_cpus):
            node = self.machine.nodes[self._node_of_cpu[c]]
            slot = self._cpu_slot[c]
            l1 = node.l1s[slot]
            self._mctx.append(
                (
                    node,
                    node.node_id,
                    node.stats,
                    node.page_state,
                    node.peer_arrays[slot],
                    node.bus,
                    l1.mask,
                    l1.block_at,
                    l1.state_at,
                )
            )

        self._block_shift = space.block_shift
        self._block_page_shift = space.page_shift - space.block_shift
        self._bpp_mask = space.blocks_per_page - 1

        # Hot cross-object references, bound once: every miss reads
        # these, and no structure replaces the directory, network or
        # stats objects while the engine runs, so per-miss attribute
        # chains are pure overhead.
        self._costs = config.costs
        self._directory = self.machine.directory
        self._network = self.machine.network
        self._nodes = self.machine.nodes
        self._dir_slots = self.machine.directory.slots
        self._dir_owners = self.machine.directory.owners
        self._dir_sharers = self.machine.directory.sharer_masks
        self._dir_held = self.machine.directory.held_masks
        # _remote_fetch inlines the remote read and write requests with
        # the exact full map's update rules.  The inexact
        # representations (limited-pointer, coarse-vector) admit
        # sharers and grant ownership by their own rules, so their
        # remote requests go through the Directory methods.  Every
        # representation shares the home accesses' rules, so _miss
        # inlines those for all of them.
        self._dir_inline = type(self.machine.directory) is Directory

        #: Scheduler counters, populated by :meth:`run`.
        self.sched_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        costs = self.config.costs
        barrier_cost = costs.barrier_cost
        # One shift turns a packed word into its block number.
        block_unpack = ADDR_SHIFT + self._block_shift
        think_mask = THINK_MASK
        traces = self._columns
        n_cpus = len(traces)
        l1s = self._l1_of_cpu
        node_of = self._node_of_cpu
        nodes = [self.machine.nodes[node_of[c]] for c in range(n_cpus)]
        n_nodes = len(self.machine.nodes)

        # Per-CPU hot context, rebound in one list index per switch: the
        # trace cursor (a persistent iterator over the packed column —
        # it remembers its position across yields, which removes all
        # index bookkeeping from the loop) and the CPU's L1 arrays.
        # The arrays keep their identity for the whole run, so hoisting
        # them here is safe.  Cold per-CPU state (the L1 object, node,
        # node id) is looked up only on the rare paths.
        cursors = [iter(column) for column in traces]
        ctxs = [
            (cursors[c], l1s[c].block_at, l1s[c].state_at, l1s[c].mask)
            for c in range(n_cpus)
        ]

        # Only misses touch per-node accumulators inside the loop; the
        # hit and busy counters are settled analytically after it (a
        # completed run executes every access exactly once), so the
        # dominant path carries no stats work at all.  Nothing reads
        # the four deferred counters mid-run.
        misses_acc = [0] * n_nodes
        stall_acc = [0] * n_nodes

        finish = [0] * n_cpus
        # The earliest event is held in hand; the heap holds the rest.
        # Yielding to the heap is then a single heappushpop instead of
        # a heappush plus a later heappop.  Events are packed as the
        # single int ``time * n_cpus + cpu`` — order-isomorphic to the
        # (time, cpu) tuple for 0 <= cpu < n_cpus, so the heap order is
        # the classic order, but a compare is one int compare and a
        # yield allocates nothing.
        heap = list(range(1, n_cpus))  # (t=0, cpu=c) encodes as c
        heapq.heapify(heap)
        t = 0
        cpu = 0
        barrier_arrivals: Dict[int, List] = {}
        # cpus currently parked at a barrier are in neither heap nor hand

        heappushpop = heapq.heappushpop
        heappop = heapq.heappop
        heappush = heapq.heappush
        miss = self._miss  # bind
        yields = 0  # drain ended because another cpu's event came first
        rare_pops = 0  # hand refills after a barrier park or trace end
        barrier_pushes = 0
        running = n_cpus > 0

        while running:
            # Switch in the hand cpu's context, then run it ahead while
            # its next event, ordered as the tuple (time, cpu), sorts
            # before the heap head: the classic loop would pop this cpu
            # straight back, so executing here is schedule-exact (ties
            # break by cpu id through tuple order, same as the heap).
            # The drain leaves the heap untouched, so the head bound is
            # loop-invariant.  An empty heap (every other cpu parked at
            # a barrier, or done) reads as an unreachable head: nothing
            # can preempt the cpu, which drains to its next barrier or
            # to the end of its trace.
            it, blocks, states, lmask = ctxs[cpu]
            head = heap[0] if heap else NO_HEAD
            for word in it:
                if word < 0:
                    # Barrier: park this cpu until everyone arrives.
                    ident = -1 - word
                    arrivals = barrier_arrivals.setdefault(ident, [])
                    arrivals.append((t, cpu))
                    if heap:
                        # Every cpu still in the heap has yet to arrive,
                        # so parking hands the machine to the head.
                        t, cpu = divmod(heappop(heap), n_cpus)
                        rare_pops += 1
                    elif len(arrivals) == n_cpus:
                        # The last arrival found the heap empty: release
                        # everyone.
                        release = max(at for at, _ in arrivals) + barrier_cost
                        base = release * n_cpus
                        for at, c2 in arrivals:
                            nodes[c2].stats.barrier_wait_cycles += release - at
                            heappush(heap, base + c2)
                        barrier_pushes += n_cpus
                        del barrier_arrivals[ident]
                        self.machine.stats.barriers_crossed += 1
                        t, cpu = divmod(heappop(heap), n_cpus)
                        rare_pops += 1
                    else:
                        # A cpu retired without reaching the barrier:
                        # reported as a deadlock below.
                        running = False
                    break
                # Access: addr/think/write unpacked straight from the
                # word.  A resident line (tag match) always hits a read;
                # writes additionally need M (>=) or E, and E upgrades
                # to M in place.
                b = word >> block_unpack
                idx = b & lmask
                if blocks[idx] == b and (
                    not word & 1
                    or (st := states[idx]) >= MODIFIED
                    or st == EXCLUSIVE
                ):
                    if word & 1 and st == EXCLUSIVE:
                        states[idx] = MODIFIED
                    nt = t + ((word >> 1) & think_mask) + 1
                else:
                    now = t + ((word >> 1) & think_mask)
                    st = states[idx] if blocks[idx] == b else INVALID
                    nid = node_of[cpu]
                    latency = miss(cpu, b, word & 1, st, now)
                    misses_acc[nid] += 1
                    stall_acc[nid] += latency
                    nt = now + 1 + latency
                ev = nt * n_cpus + cpu
                if ev < head:
                    # Still the earliest event machine-wide: run ahead.
                    t = nt
                    continue
                t, cpu = divmod(heappushpop(heap, ev), n_cpus)
                yields += 1
                break
            else:
                # Trace exhausted: the cpu retires at its current clock
                # (exactly when the classic loop's final pop would be).
                finish[cpu] = t
                if heap:
                    t, cpu = divmod(heappop(heap), n_cpus)
                    rare_pops += 1
                else:
                    running = False

        if barrier_arrivals:
            waiting = sorted(barrier_arrivals)
            raise TraceError(
                f"deadlock: barriers {waiting[:4]} never completed "
                "(some trace ended before reaching them)"
            )

        # Settle the deferred counters: hits = accesses - misses, and
        # every access contributed think+1 busy cycles, hit or miss —
        # both schedule-independent, both per node.  The program
        # memoizes the per-CPU profile across the protocols of a sweep.
        access_acc = [0] * n_nodes
        busy_acc = [0] * n_nodes
        profile = self.program.per_cpu_profile()
        for c, (accesses, think, _runs) in enumerate(profile):
            access_acc[node_of[c]] += accesses
            busy_acc[node_of[c]] += accesses + think
        machine = self.machine
        for nid in range(n_nodes):
            ns = machine.nodes[nid].stats
            ns.l1_hits += access_acc[nid] - misses_acc[nid]
            ns.l1_misses += misses_acc[nid]
            ns.busy_cycles += busy_acc[nid]
            ns.stall_cycles += stall_acc[nid]

        self.sched_stats = {
            "refs": sum(access_acc),
            "heap_pops": yields + rare_pops,
            "heap_pushes": yields + barrier_pushes,
            "drains": yields + rare_pops + (1 if n_cpus else 0),
        }
        return SimulationResult(
            config=self.config,
            exec_cycles=max(finish) if finish else 0,
            cpu_finish_times=finish,
            stats=machine.stats,
            refetch_counts=machine.refetch_counts,
            rw_shared_pages=frozenset(machine.read_write_shared_pages()),
            remote_pages_touched=len(machine.page_requesters),
            directory_overflows=machine.directory.overflows,
        )

    # ------------------------------------------------------------------
    # miss path
    #
    # Everything below runs once per L1 miss and allocates nothing:
    # directory outcomes are packed ints, block-cache state is read and
    # written in its columns, and L1 victims are read in place.  The
    # read and write handlers are merged into one body with two shared
    # tails: one home fetch (remote fetch + install) for the four cases
    # that miss on the node, and one install into the L1.  A miss costs
    # one Python call for the intra-node cases and two or three for the
    # inter-node ones.
    # ------------------------------------------------------------------

    def _miss(self, cpu: int, b: int, w: int, st: int, now: int) -> int:
        """Service an L1 miss (or write upgrade); returns added latency."""
        costs = self._costs
        g = b >> self._block_page_shift
        node, nid, ns, pmap, peers, bus, lmask, lblocks_own, lstates_own = self._mctx[cpu]
        mapping = pmap.get(g, MAP_UNMAPPED)
        lat = 0

        if mapping == MAP_UNMAPPED:
            # Page absent from the placement map (user-supplied homes):
            # first-touch it here, via the shared fallback.
            home = resolve_home(self.homes, g, nid)
            if home == nid:
                node.page_table.map_local(g)
                mapping = MAP_LOCAL
            else:
                lat += self._map_remote_page(self.machine, node, g)
                mapping = pmap.get(g, MAP_UNMAPPED)

        # Every miss is a bus transaction on the node's memory bus
        # (the BusyResource acquire, inlined: bus_occupancy was
        # validated non-negative by CostParams).
        occ = costs.bus_occupancy
        arrival = now + lat
        start = bus.free_at
        if arrival > start:
            start = arrival
        bus.free_at = start + occ
        bus.busy_cycles += occ
        bus.transactions += 1
        lat += start - arrival
        now += lat

        # A block the node cannot serve comes from its home: the four
        # cases below (read or write, block cache or page cache) only
        # count the miss and set ``fetch``; the home-fetch tail after
        # the read/write split fetches and installs.
        fetch = holds_copy = False
        if not w:
            # -- read ------------------------------------------------------
            state = SHARED
            supplied = False
            for pmask, pblocks, pstates in peers:
                # MOESI snoop-read from a peer L1 holding M/O/E (plain
                # SHARED copies never respond — the MBus rule that sends
                # read-only remote misses to the home node, paper
                # Section 4): M -> O, E -> S, O stays O.
                idx = b & pmask
                if pblocks[idx] == b:
                    pst = pstates[idx]
                    if pst == MODIFIED:
                        pstates[idx] = OWNED
                    elif pst == EXCLUSIVE:
                        pstates[idx] = SHARED
                    elif pst != OWNED:
                        continue
                    supplied = True
                    break
            if supplied:
                ns.cache_to_cache += 1
                ns.local_fills += 1
                lat += costs.local_fill
            elif mapping == MAP_LOCAL:
                # Directory.home_read_access, inlined on the bound
                # columns: a remote exclusive owner (if any) is recalled
                # and cleared; nothing else changes.
                ds = self._dir_slots.get(b)
                if ds is None:
                    prev_owner = -1
                else:
                    prev_owner = self._dir_owners[ds]
                    if prev_owner == nid:
                        prev_owner = -1
                    elif prev_owner >= 0:
                        self._dir_owners[ds] = -1
                if b in node.coherence_lost:
                    ns.coherence_misses += 1
                    node.coherence_lost.discard(b)
                if prev_owner >= 0:
                    # Recall the dirty copy from the remote owner.
                    lat += costs.remote_fetch
                    lat += self._network.round_trip_delay(nid, prev_owner, now)
                    self._downgrade_node(prev_owner, b, g)
                    ns.remote_fetches += 1
                else:
                    lat += costs.local_fill
                    ns.local_fills += 1
                # Sole-copy check, inlined: no peer L1 holds it and the
                # directory lists no sharers (ds was fetched above).
                sole = True
                for pmask, pblocks, _pstates in peers:
                    if pblocks[b & pmask] == b:
                        sole = False
                        break
                if sole and (ds is None or not self._dir_sharers[ds]):
                    state = EXCLUSIVE  # no cache anywhere holds it
            elif mapping == MAP_CC:
                bmask, bblocks, bwrit, bdirt = node.bc_cols
                bidx = b & bmask
                if bblocks[bidx] == b:
                    ns.block_cache_hits += 1
                    ns.local_fills += 1
                    lat += costs.local_fill
                    if bwrit[bidx] and self._no_peer_copies(peers, b):
                        state = EXCLUSIVE
                else:
                    ns.block_cache_misses += 1
                    fetch = True
            else:
                # MAP_SCOMA
                row = node.tag_rows.get(g)
                tag = row[b & self._bpp_mask] if row is not None else BLOCK_INVALID
                if tag != BLOCK_INVALID:
                    ns.page_cache_hits += 1
                    ns.local_fills += 1
                    lat += costs.local_fill
                    if node.page_cache.reorders_on_hit:
                        node.page_cache.touch_hit(g)
                    if tag == BLOCK_WRITABLE and self._no_peer_copies(peers, b):
                        state = EXCLUSIVE
                else:
                    ns.page_cache_misses += 1
                    fetch = True
        else:
            # -- write -----------------------------------------------------
            state = MODIFIED
            if mapping == MAP_LOCAL:
                # Directory.home_write_access, inlined on the bound
                # columns: every remote copy is invalidated and cleared
                # from was-held (their next miss is a coherence miss).
                ds = self._dir_slots.get(b)
                if ds is None:
                    inval = 0
                    prev_owner = -1
                else:
                    prev_owner = self._dir_owners[ds]
                    if prev_owner == nid:
                        prev_owner = -1
                    inval = self._dir_sharers[ds] & ~(1 << nid)
                    self._dir_owners[ds] = NO_OWNER
                    self._dir_sharers[ds] = 0
                    self._dir_held[ds] = 0
                if inval:
                    ns.invalidations_sent += inval.bit_count()
                if b in node.coherence_lost:
                    ns.coherence_misses += 1
                    node.coherence_lost.discard(b)
                if inval or prev_owner >= 0:
                    # Write-sharing traffic: the home's write displaced
                    # remote copies (Table 4's read-write classification).
                    writers = self.machine.page_writers
                    writers[g] = writers.get(g, 0) | (1 << nid)
                    m = inval
                    while m:
                        low = m & -m
                        self._invalidate_node_block(low.bit_length() - 1, b, g)
                        m ^= low
                    lat += costs.remote_fetch
                    target = (
                        prev_owner
                        if prev_owner >= 0
                        else (inval & -inval).bit_length() - 1
                    )
                    lat += self._network.round_trip_delay(nid, target, now)
                    ns.remote_fetches += 1
                elif st != INVALID:
                    lat += costs.sram_access  # local upgrade, no data transfer
                else:
                    lat += costs.local_fill
                    ns.local_fills += 1
                    for pmask, pblocks, pstates in peers:
                        # M/O/E supply; the canonical encoding makes
                        # that one compare (state >= EXCLUSIVE).
                        idx = b & pmask
                        if pblocks[idx] == b and pstates[idx] >= EXCLUSIVE:
                            ns.cache_to_cache += 1
                            break
            else:
                # A remote block.  The node may write it without asking
                # the home when it already has exclusive rights: it is
                # the directory's owner (block cache), or its page-cache
                # tag is writable.
                if mapping == MAP_CC:
                    ds = self._dir_slots.get(b)
                    owned = ds is not None and self._dir_owners[ds] == nid
                    bmask, bblocks, bwrit, bdirt = node.bc_cols
                    bidx = b & bmask
                    if owned:
                        if bblocks[bidx] == b:
                            bwrit[bidx] = 1
                            bdirt[bidx] = 1
                    else:
                        holds_copy = st != INVALID or bblocks[bidx] == b
                        if not holds_copy:
                            ns.block_cache_misses += 1
                        fetch = True
                else:
                    # MAP_SCOMA
                    row = node.tag_rows.get(g)
                    tag = row[b & self._bpp_mask] if row is not None else BLOCK_INVALID
                    owned = tag == BLOCK_WRITABLE
                    if owned:
                        ns.page_cache_hits += 1
                        if node.page_cache.reorders_on_hit:
                            node.page_cache.touch_hit(g)
                    else:
                        holds_copy = st != INVALID or tag == BLOCK_READONLY
                        ns.page_cache_misses += 1
                        fetch = True
                if owned:
                    # Intra-node service: supply from a peer L1 (M/O/E),
                    # upgrade a resident line in place, or fill from the
                    # node store.
                    supplied = False
                    for pmask, pblocks, pstates in peers:
                        idx = b & pmask
                        if pblocks[idx] == b and pstates[idx] >= EXCLUSIVE:
                            supplied = True
                            break
                    if supplied:
                        ns.cache_to_cache += 1
                        ns.local_fills += 1
                        lat += costs.local_fill
                    elif st != INVALID:
                        lat += costs.sram_access
                    else:
                        ns.local_fills += 1
                        lat += costs.local_fill

        # -- home-fetch tail ------------------------------------------------
        if fetch:
            lat += self._remote_fetch(node, b, g, w, now, holds_copy)
            # Install where the page lives now: R-NUMA may have
            # relocated it into the page cache mid-fetch.
            if pmap.get(g, MAP_UNMAPPED) == MAP_SCOMA:
                self._scoma_install(node, b, g, w)
            else:
                # Into the block cache, at the frame the CC-NUMA branch
                # above probed (a fetch moves a page into the page cache
                # or leaves it where it was): clean and read-only for a
                # read, writable and dirty for a write (it is written
                # at once).  Evicting a read-write (writable/dirty)
                # frame forces the L1 copies out (inclusion) and writes
                # the victim home; a read-only frame is dropped silently
                # and its L1 copies survive (relaxed inclusion, paper
                # Section 4).
                resident = bblocks[bidx]
                if (
                    resident >= 0
                    and resident != b
                    and (bwrit[bidx] or bdirt[bidx])
                ):
                    for pmask, pblocks, pstates in node.l1_arrays:
                        vdx = resident & pmask
                        if pblocks[vdx] == resident:
                            pblocks[vdx] = L1_EMPTY
                            pstates[vdx] = INVALID
                    self._write_back(nid, resident, now)
                bblocks[bidx] = b
                bwrit[bidx] = w
                bdirt[bidx] = w
        if w:
            # A write leaves this CPU's L1 as the only copy on the node.
            # This runs after the fetch: a relocation inside it reads
            # the node's L1s.
            for pmask, pblocks, pstates in peers:
                idx = b & pmask
                if pblocks[idx] == b:
                    pblocks[idx] = L1_EMPTY
                    pstates[idx] = INVALID

        # -- common tail: install into the requesting L1 -------------------
        # The victim is read straight out of the L1 arrays before the
        # frame is overwritten — no (block, state) tuple materializes.
        # A dirty victim (M/O — one compare under the canonical
        # encoding) drains to the node-level backing store: local
        # memory (the page-cache frame, for an S-COMA page) absorbs it
        # for free, and a CC-NUMA block goes to its block-cache frame,
        # or straight home if it has none.
        idx = b & lmask
        vb = lblocks_own[idx]
        if (
            vb >= 0
            and vb != b
            and lstates_own[idx] >= OWNED
            and pmap.get(vb >> self._block_page_shift, MAP_UNMAPPED) == MAP_CC
        ):
            bmask, bblocks, bwrit, bdirt = node.bc_cols
            vidx = vb & bmask
            if bblocks[vidx] == vb:
                bwrit[vidx] = 1
                bdirt[vidx] = 1
            else:
                self._write_back(nid, vb, now)
        lblocks_own[idx] = b
        lstates_own[idx] = state
        return lat

    # -- shared helpers --------------------------------------------------

    def _no_peer_copies(self, peers, b: int) -> bool:
        """No peer L1 in ``peers`` (the (mask, blocks, states) triples
        of the other slots on the node) holds the block."""
        for lmask, lblocks, _lstates in peers:
            if lblocks[b & lmask] == b:
                return False
        return True

    def _write_back(self, nid: int, block: int, now: int) -> None:
        """Write a dirty remote block back to its home: a fetch's
        block-cache victim, or an L1 victim with no block-cache frame.

        The directory forgets node ``nid``'s copy and the message
        occupies the network; no processor waits for it.
        """
        self._directory.writeback(block, nid)
        home = self.homes.get(block >> self._block_page_shift, nid)
        self._network.one_way_delay(nid, now, dst=home)
        self._nodes[nid].stats.block_cache_writebacks += 1

    def _scoma_install(self, node: Node, b: int, g: int, writable: bool) -> None:
        """Record a fetched block in the page-cache tags and LRM order."""
        off = b & self._bpp_mask
        node.tags.set(g, off, BLOCK_WRITABLE if writable else BLOCK_READONLY)
        node.page_cache.touch_miss(g)

    # -- inter-node ------------------------------------------------------

    def _remote_fetch(
        self, node: Node, b: int, g: int, write: bool, now: int, upgrade: bool = False
    ) -> int:
        """Fetch ``b`` from its home; returns latency including
        contention, R-NUMA's refetch counting, and invalidation fan-out."""
        machine = self.machine
        costs = self._costs
        nid = node.node_id
        nbit = 1 << nid
        home = self.homes[g]

        if write:
            # Directory.write_request, inlined on the bound columns
            # (first touch of a block, and every request against an
            # inexact representation, takes the canonical method).
            ds = self._dir_slots.get(b) if self._dir_inline else None
            if ds is None:
                out = self._directory.write_request(b, nid, upgrade=upgrade)
                refetch = out & 1
                inval = out >> OUT_INVAL_SHIFT
            else:
                owners = self._dir_owners
                owner = owners[ds]
                refetch = 0
                if not upgrade and owner != nid:
                    refetch = (self._dir_held[ds] >> nid) & 1
                inval = self._dir_sharers[ds] & ~nbit
                self._dir_sharers[ds] = nbit
                self._dir_held[ds] = nbit
                owners[ds] = nid
            n_inval = inval.bit_count()
            node.stats.invalidations_sent += n_inval
            extra = costs.invalidate_per_sharer * n_inval
            while inval:
                low = inval & -inval
                self._invalidate_node_block(low.bit_length() - 1, b, g)
                inval ^= low
            # The home node's own processor caches lose their copies
            # too.  Only its L1s can hold the block: the home's block
            # cache and fine-grain tags store *remote* data only, and
            # ``b`` is local to ``home``.
            home_node = self._nodes[home]
            had_copy = False
            for lmask, lblocks, lstates in home_node.l1_arrays:
                idx = b & lmask
                if lblocks[idx] == b:
                    lblocks[idx] = L1_EMPTY
                    lstates[idx] = INVALID
                    had_copy = True
            if had_copy:
                home_node.coherence_lost.add(b)
        else:
            # Directory.read_request, inlined on the bound columns.
            ds = self._dir_slots.get(b) if self._dir_inline else None
            if ds is None:
                out = self._directory.read_request(b, nid)
                refetch = out & 1
                prev_owner = ((out >> OUT_OWNER_SHIFT) & OUT_OWNER_MASK) - 1
                # Limited-pointer eviction overflow sheds a sharer on a
                # *read*: fan the eviction out like a write invalidation.
                evict = out >> OUT_INVAL_SHIFT
            else:
                owners = self._dir_owners
                owner = owners[ds]
                refetch = (self._dir_held[ds] >> nid) & 1
                prev_owner = -1
                if owner >= 0 and owner != nid:
                    prev_owner = owner
                    owners[ds] = NO_OWNER
                elif owner == nid:
                    owners[ds] = NO_OWNER
                self._dir_sharers[ds] |= nbit
                self._dir_held[ds] |= nbit
                evict = 0
            extra = 0
            if evict:
                n_evict = evict.bit_count()
                node.stats.invalidations_sent += n_evict
                extra = costs.invalidate_per_sharer * n_evict
                while evict:
                    low = evict & -evict
                    self._invalidate_node_block(low.bit_length() - 1, b, g)
                    evict ^= low
            if prev_owner >= 0:
                self._downgrade_node(prev_owner, b, g)
            # Downgrade the home's copies: L1s only, same argument.
            for lmask, lblocks, lstates in self._nodes[home].l1_arrays:
                idx = b & lmask
                if lblocks[idx] == b:
                    lstates[idx] = SHARED

        lat = costs.remote_fetch + self._network.round_trip_delay(nid, home, now, extra)
        node.stats.remote_fetches += 1

        requesters = machine.page_requesters
        requesters[g] = requesters.get(g, 0) | nbit
        if write:
            writers = machine.page_writers
            writers[g] = writers.get(g, 0) | nbit

        if refetch:
            node.stats.refetches += 1
            machine.record_refetch(nid, g)
            if self._counts_refetches:
                lat += count_refetch(machine, node, g)
        elif b in node.coherence_lost:
            node.stats.coherence_misses += 1
            node.coherence_lost.discard(b)
        return lat

    def _invalidate_node_block(self, victim_node: int, b: int, g: int) -> None:
        """Remove every copy of ``b`` on ``victim_node`` (coherence)."""
        v = self._nodes[victim_node]
        had_copy = False
        for lmask, lblocks, lstates in v.l1_arrays:
            idx = b & lmask
            if lblocks[idx] == b:
                lblocks[idx] = L1_EMPTY
                lstates[idx] = INVALID
                had_copy = True
        if v.block_cache.invalidate_probe(b) >= 0:
            had_copy = True
        row = v.tag_rows.get(g)
        if row is not None:
            off = b & self._bpp_mask
            if row[off] != BLOCK_INVALID:
                row[off] = BLOCK_INVALID
                had_copy = True
        if had_copy:
            v.coherence_lost.add(b)

    def _downgrade_node(self, owner_node: int, b: int, g: int) -> None:
        """The previous exclusive owner keeps a shared, clean copy."""
        v = self._nodes[owner_node]
        for lmask, lblocks, lstates in v.l1_arrays:
            idx = b & lmask
            if lblocks[idx] == b:
                lstates[idx] = SHARED
        v.block_cache.downgrade(b)
        row = v.tag_rows.get(g)
        if row is not None:
            off = b & self._bpp_mask
            if row[off] == BLOCK_WRITABLE:
                row[off] = BLOCK_READONLY


def simulate(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
    engine: str = "runahead",
) -> SimulationResult:
    """Build the named engine backend (see :mod:`repro.sim.factory`),
    run it, and return the result.

    When ``config.obs`` enables tracing or metrics, the run goes
    through :func:`repro.obs.attach.observed_run` (imported only then —
    the obs package stays unloaded for ordinary runs), which attaches
    the miss-hook instrumentation before the run loop starts.  Results
    are bit-identical either way.
    """
    from repro.sim.factory import make_engine

    sim = make_engine(config, traces, homes, engine)
    if config.obs.enabled:
        from repro.obs.attach import observed_run

        return observed_run(sim, config.obs, engine)
    return sim.run()
