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
  links along each message's precomputed route;
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
another CPU's event comes first.  See docs/architecture.md
("Scheduler") for the invariant written out.

Columnar miss path
------------------

The miss path allocates no objects.  The directory returns a packed
outcome int (refetch bit, previous owner, invalidation bitmask — see
:mod:`repro.coherence.directory`) decoded with shifts; sharers iterate
via ``mask & -mask`` bit tricks.  The block cache answers packed-int
probes against its ``array('q')``/``bytearray`` columns, page-cache
recency moves are array-index relinks, and L1 victims are read straight
out of the L1 arrays instead of materializing (block, state) tuples.
Hot cross-object references (costs, directory, network) are bound once
at construction.  See docs/architecture.md ("Memory-system state
layout").

Traces are consumed in their packed columnar form (one ``array('q')``
of 64-bit words per CPU, see :mod:`repro.common.records`): the hot
loop classifies an item by its sign bit and unpacks the address/think/
write fields with shifts, so a compiled program runs with no per-run
conversion pass.  Legacy Access/Barrier object sequences are packed
(and barrier-validated) once at engine construction; barrier
validation of raw columns is memoized across runs
(:func:`repro.common.records.ensure_barriers_validated`), so replaying
one program across the four protocols of a sweep validates once.

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
from repro.common.records import (
    ADDR_SHIFT,
    THINK_MASK,
    as_columns,
    column_profile,
    ensure_barriers_validated,
)
from repro.machine.machine import Machine
from repro.machine.node import Node
from repro.osint.placement import first_touch_homes, resolve_home
from repro.protocols import make_policy
from repro.sim.results import SimulationResult
from repro.vm.page_table import MAP_CC, MAP_LOCAL, MAP_SCOMA, MAP_UNMAPPED

# The drain loop encodes MOESI facts as arithmetic: INVALID must be
# falsy, and "write hit without a bus transaction" must be expressible
# as ``st >= MODIFIED or st == EXCLUSIVE``.  Pin the values those
# shortcuts depend on so a states.py edit cannot silently corrupt the
# fast path.
assert (INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED) == (0, 1, 2, 3, 4), (
    "engine fast path assumes the canonical MOESI encoding"
)

class SimulationEngine:
    """One simulation run: a machine, a policy, and a set of traces.

    ``traces`` may be a :class:`~repro.workloads.compile.CompiledProgram`
    (its columns are consumed directly and its memoized first-touch map
    is reused), a sequence of packed columns/TraceViews, or legacy
    per-CPU Access/Barrier sequences.

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
        self.policy = make_policy(config.protocol, config)
        self._columns, _ = as_columns(traces)
        if len(self._columns) != config.machine.total_cpus:
            raise TraceError(
                f"expected {config.machine.total_cpus} traces, "
                f"got {len(self._columns)}"
            )
        if getattr(traces, "barrier_ids", None) is None:
            # Compiled programs were barrier-validated at construction;
            # everything else (object traces, raw columns, views) is
            # checked here — memoized, so a sweep replaying the same
            # columns across protocols scans them once — because a
            # mismatch must fail fast, not as a deadlock.
            ensure_barriers_validated(self._columns)
        space = config.space
        if homes is None:
            cached = getattr(traces, "first_touch_homes", None)
            if cached is not None:
                # Compiled programs memoize placement across protocols;
                # copy because the engine adds late first-touches.
                homes = dict(cached(config.machine, space))
            else:
                homes = first_touch_homes(self._columns, config.machine, space)
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
        # for the run, gathered behind one list index.  All members
        # keep their identity across Machine.reset().
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
        # these, and the directory/network/stats objects keep their
        # identity for the life of the machine (reset() works in
        # place), so per-miss attribute chains are pure overhead.
        self._costs = config.costs
        self._directory = self.machine.directory
        self._network = self.machine.network
        self._nodes = self.machine.nodes
        self._dir_slots = self.machine.directory.slots
        self._dir_owners = self.machine.directory.owners
        self._dir_sharers = self.machine.directory.sharer_masks
        self._dir_held = self.machine.directory.held_masks
        # The inlined directory mutations below hand-transcribe the
        # exact full-map request semantics.  Inexact representations
        # (limited-pointer / coarse-vector) carry extra per-slot state
        # and different update rules, so their mutating requests go
        # through the canonical Directory methods; read-only probes
        # (owner pointer, conservative sharer mask) stay inlined for
        # every representation because those columns keep exact-or-
        # superset semantics across all of them.
        self._dir_inline = type(self.machine.directory) is Directory
        # Uniform-fabric facts for the inlined round trip in
        # _remote_fetch (the Network object keeps its identity and its
        # links list is fixed per topology).
        self._uniform_net = not self.machine.network.links
        self._net_latency = self.machine.network.latency
        self._ni_occ = config.costs.ni_occupancy
        self._rad_occ = config.costs.rad_occupancy

        # Deferred source of the per-CPU (accesses, think_cycles, runs)
        # profile: run() accounts l1_hits and busy_cycles analytically
        # instead of per reference (every access of a completed run
        # executes exactly once and contributes think+1 busy cycles,
        # hit or miss).  Compiled programs memoize the scan across the
        # protocols of a sweep; for raw columns it runs lazily, only
        # for the engine that needs it (the reference loop does not).
        self._profile_fn = getattr(traces, "per_cpu_profile", None)

        #: Scheduler counters, populated by :meth:`run`.
        self.sched_stats: Dict[str, int] = {}

    def _cpu_profile(self):
        if self._profile_fn is not None:
            return self._profile_fn()
        return [column_profile(column) for column in self._columns]

    def reset(self) -> None:
        """Restore the engine (machine included) to its pre-run state.

        Back-to-back :meth:`run` calls on one engine then yield
        bit-identical results: every structure resets in place and the
        home pre-mapping is reapplied.  Pages first-touched *during* a
        previous run are pre-mapped local at their (local) home, which
        is indistinguishable from the lazy mapping the first run
        performed — the unmapped->local transition charges nothing.
        """
        self.machine.reset()
        for page, home in self.homes.items():
            self.machine.nodes[home].page_table.map_local(page)
        self.sched_stats = {}

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
            # loop-invariant.
            it, blocks, states, lmask = ctxs[cpu]
            if not heap:
                # Every other cpu is parked at a barrier (or done), so
                # nothing can preempt this one: drain with no boundary
                # check at all.  Misses never add heap events; only a
                # barrier (ours, completing) can repopulate the heap,
                # and that path breaks out to re-select the drain kind.
                for word in it:
                    if word < 0:
                        ident = -1 - word
                        arrivals = barrier_arrivals.setdefault(ident, [])
                        arrivals.append((t, cpu))
                        if len(arrivals) == n_cpus:
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
                            running = False
                        break
                    b = word >> block_unpack
                    idx = b & lmask
                    if blocks[idx] == b and (
                        not word & 1
                        or (st := states[idx]) >= MODIFIED
                        or st == EXCLUSIVE
                    ):
                        if word & 1 and st == EXCLUSIVE:
                            states[idx] = MODIFIED
                        t += ((word >> 1) & think_mask) + 1
                    else:
                        now = t + ((word >> 1) & think_mask)
                        st = states[idx] if blocks[idx] == b else INVALID
                        nid = node_of[cpu]
                        latency = miss(cpu, b, word & 1, st, now)
                        misses_acc[nid] += 1
                        stall_acc[nid] += latency
                        t = now + 1 + latency
                else:
                    finish[cpu] = t
                    running = False
                continue
            head = heap[0]
            for word in it:
                if word < 0:
                    # Barrier: park this cpu until everyone arrives.
                    # The barrier cannot complete here — every cpu
                    # still in the (non-empty) heap has yet to arrive —
                    # so parking always hands the machine to the head.
                    arrivals = barrier_arrivals.setdefault(-1 - word, [])
                    arrivals.append((t, cpu))
                    t, cpu = divmod(heappop(heap), n_cpus)
                    rare_pops += 1
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
                t, cpu = divmod(heappop(heap), n_cpus)
                rare_pops += 1

        if barrier_arrivals:
            waiting = sorted(barrier_arrivals)
            raise TraceError(
                f"deadlock: barriers {waiting[:4]} never completed "
                "(some trace ended before reaching them)"
            )

        # Settle the deferred counters: hits = accesses - misses, and
        # every access contributed think+1 busy cycles, hit or miss —
        # both schedule-independent, both per node.
        access_acc = [0] * n_nodes
        busy_acc = [0] * n_nodes
        for c, (accesses, think, _runs) in enumerate(self._cpu_profile()):
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
    # directory outcomes are packed ints, block-cache state is probed
    # out of flat columns, and L1 victims are read in place.  The read
    # and write handlers are merged into one body with a shared
    # install-into-L1 tail, so a miss costs one Python call for the
    # intra-node cases and two or three for the inter-node ones.
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
                lat += self.policy.on_page_fault(self.machine, node, g)
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
                    lat += self._round_trip(nid, prev_owner, now, 0)
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
                cols = node.bc_cols
                if cols is None:
                    flags = node.block_cache.probe(b)
                else:
                    bmask, bblocks, bwrit, bdirt = cols
                    bidx = b & bmask
                    if bblocks[bidx] == b:
                        flags = bwrit[bidx] | (bdirt[bidx] << 1)
                    else:
                        flags = -1
                if flags >= 0:
                    ns.block_cache_hits += 1
                    ns.local_fills += 1
                    lat += costs.local_fill
                    if flags & 1 and self._no_peer_copies(peers, b):
                        state = EXCLUSIVE
                else:
                    ns.block_cache_misses += 1
                    lat += self._remote_fetch(node, b, g, False, now)
                    # The policy may have relocated the page mid-fetch
                    # (R-NUMA).
                    if pmap.get(g, MAP_UNMAPPED) == MAP_SCOMA:
                        self._scoma_install(node, b, g, writable=False)
                    elif cols is None:
                        self._block_cache_install(node, b, g, writable=False, now=now)
                    else:
                        # _block_cache_install, inlined on the columns.
                        bmask, bblocks, bwrit, bdirt = cols
                        bidx = b & bmask
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
                            self._directory.writeback(resident, nid)
                            vg = resident >> self._block_page_shift
                            self._network.one_way_delay(
                                nid, now, dst=self.homes.get(vg, nid)
                            )
                            ns.block_cache_writebacks += 1
                        bblocks[bidx] = b
                        bwrit[bidx] = 0
                        bdirt[bidx] = 0
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
                    lat += self._remote_fetch(node, b, g, False, now)
                    if pmap.get(g, MAP_UNMAPPED) == MAP_SCOMA:
                        self._scoma_install(node, b, g, writable=False)
        else:
            # -- write -----------------------------------------------------
            state = MODIFIED
            if mapping == MAP_LOCAL:
                # Directory.home_write_access, inlined on the bound
                # columns: every remote copy is invalidated and cleared
                # from was-held (their next miss is a coherence miss).
                ds = self._dir_slots.get(b) if self._dir_inline else None
                if ds is None:
                    if self._dir_inline or b not in self._dir_slots:
                        inval = 0
                        prev_owner = -1
                    else:
                        out = self._directory.home_write_access(b, nid)
                        prev_owner = ((out >> OUT_OWNER_SHIFT) & OUT_OWNER_MASK) - 1
                        inval = out >> OUT_INVAL_SHIFT
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
                    lat += self._round_trip(nid, target, now, 0)
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
            elif mapping == MAP_CC:
                bc = node.block_cache
                cols = node.bc_cols
                ds = self._dir_slots.get(b)
                if ds is not None and self._dir_owners[ds] == nid:
                    # Node already has exclusive rights: intra-node
                    # service — supply from a peer L1 (M/O/E), upgrade a
                    # resident line in place, or fill from the node store.
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
                    if cols is None:
                        bc.mark_dirty(b)
                    else:
                        bmask, bblocks, bwrit, bdirt = cols
                        bidx = b & bmask
                        if bblocks[bidx] == b:
                            bwrit[bidx] = 1
                            bdirt[bidx] = 1
                else:
                    if st != INVALID:
                        holds_copy = True
                    elif cols is None:
                        holds_copy = bc.probe(b) >= 0
                    else:
                        holds_copy = cols[1][b & cols[0]] == b
                    if not holds_copy:
                        ns.block_cache_misses += 1
                    lat += self._remote_fetch(node, b, g, True, now, holds_copy)
                    if pmap.get(g, MAP_UNMAPPED) == MAP_SCOMA:
                        self._scoma_install(node, b, g, writable=True)
                    elif cols is None:
                        self._block_cache_install(node, b, g, writable=True, now=now)
                        bc.mark_dirty(b)
                    else:
                        # _block_cache_install + mark_dirty, fused on
                        # the columns (the fresh line is immediately
                        # written, so it installs writable and dirty).
                        bmask, bblocks, bwrit, bdirt = cols
                        bidx = b & bmask
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
                            self._directory.writeback(resident, nid)
                            vg = resident >> self._block_page_shift
                            self._network.one_way_delay(
                                nid, now, dst=self.homes.get(vg, nid)
                            )
                            ns.block_cache_writebacks += 1
                        bblocks[bidx] = b
                        bwrit[bidx] = 1
                        bdirt[bidx] = 1
            else:
                # MAP_SCOMA
                off = b & self._bpp_mask
                row = node.tag_rows.get(g)
                tag = row[off] if row is not None else BLOCK_INVALID
                if tag == BLOCK_WRITABLE:
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
                    ns.page_cache_hits += 1
                    if node.page_cache.reorders_on_hit:
                        node.page_cache.touch_hit(g)
                else:
                    holds_copy = st != INVALID or tag == BLOCK_READONLY
                    ns.page_cache_misses += 1
                    lat += self._remote_fetch(node, b, g, True, now, holds_copy)
                    if pmap.get(g, MAP_UNMAPPED) == MAP_SCOMA:
                        self._scoma_install(node, b, g, writable=True)
            # A write leaves this CPU's L1 as the only copy on the node.
            for pmask, pblocks, pstates in peers:
                idx = b & pmask
                if pblocks[idx] == b:
                    pblocks[idx] = L1_EMPTY
                    pstates[idx] = INVALID

        # -- common tail: install into the requesting L1 -------------------
        # The victim is read straight out of the L1 arrays before the
        # frame is overwritten — no (block, state) tuple materializes —
        # and the write-back of a dirty victim touches only node/machine
        # state, never the L1 itself.
        idx = b & lmask
        vb = lblocks_own[idx]
        if vb >= 0 and vb != b:
            # Dirty victims (M/O — one compare under the canonical
            # encoding) drain to the node-level backing store.
            if lstates_own[idx] >= OWNED:
                vg = vb >> self._block_page_shift
                vmapping = pmap.get(vg, MAP_UNMAPPED)
                if vmapping == MAP_CC:
                    cols = node.bc_cols
                    if cols is not None:
                        bmask, bblocks, bwrit, bdirt = cols
                        vidx = vb & bmask
                        if bblocks[vidx] == vb:
                            bwrit[vidx] = 1
                            bdirt[vidx] = 1
                        else:
                            # No block-cache frame (displaced): write
                            # straight home.
                            self._directory.writeback(vb, nid)
                            self._network.one_way_delay(
                                nid, now, dst=self.homes.get(vg, nid)
                            )
                            ns.block_cache_writebacks += 1
                    elif not node.block_cache.mark_dirty(vb):
                        self._directory.writeback(vb, nid)
                        self._network.one_way_delay(
                            nid, now, dst=self.homes.get(vg, nid)
                        )
                        ns.block_cache_writebacks += 1
                # MAP_LOCAL, MAP_SCOMA: local memory (the page-cache
                # frame) absorbs the write-back for free.
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

    def _block_cache_install(self, node: Node, b: int, g: int, writable: bool, now: int) -> None:
        """Install a freshly fetched block, evicting as needed.

        Evicting a read-write (writable/dirty) frame forces the L1
        copies out (inclusion) and notifies the home via a write-back;
        read-only frames are dropped silently and L1 copies survive
        (relaxed inclusion, paper Section 4).
        """
        bc = node.block_cache
        victim = bc.victim_probe(b)
        if victim >= 0 and victim & 3:
            vb = victim >> 2
            for lmask, lblocks, lstates in node.l1_arrays:
                idx = vb & lmask
                if lblocks[idx] == vb:
                    lblocks[idx] = L1_EMPTY
                    lstates[idx] = INVALID
            self._directory.writeback(vb, node.node_id)
            vg = vb >> self._block_page_shift
            self._network.one_way_delay(
                node.node_id, now, dst=self.homes.get(vg, node.node_id)
            )
            node.stats.block_cache_writebacks += 1
        bc.fill(b, writable)

    def _scoma_install(self, node: Node, b: int, g: int, writable: bool) -> None:
        """Record a fetched block in the page-cache tags and LRM order."""
        off = b & self._bpp_mask
        node.tags.set(g, off, BLOCK_WRITABLE if writable else BLOCK_READONLY)
        node.page_cache.touch_miss(g)

    # -- inter-node ------------------------------------------------------

    def _round_trip(self, src: int, dst: int, now: int, extra: int) -> int:
        """Network.round_trip_delay, specialized: the uniform fabric
        pays NI + RAD queueing only (no internal links), with the
        resource acquires inlined.  Non-uniform fabrics route through
        ``_traverse`` exactly as the canonical method does; the
        conservation and topology differential tests pin equivalence.
        """
        net = self._network
        net.messages += 1
        net.round_trips += 1
        ni_occ = self._ni_occ
        ni = net.nis[src]
        start = ni.free_at
        if now > start:
            start = now
        ni.free_at = start + ni_occ
        ni.busy_cycles += ni_occ
        ni.transactions += 1
        wait = start - now
        depart = now + wait + ni_occ
        if self._uniform_net:
            arrive = depart + self._net_latency
        else:
            arrive = net._traverse(src, dst, depart) + self._net_latency
            wait = arrive - self._net_latency - ni_occ - now
        rad = net.rads[dst]
        rad_occ = self._rad_occ + extra
        start = rad.free_at
        if arrive > start:
            start = arrive
        rad.free_at = start + rad_occ
        rad.busy_cycles += rad_occ
        rad.transactions += 1
        return wait + start - arrive

    def _remote_fetch(
        self, node: Node, b: int, g: int, write: bool, now: int, upgrade: bool = False
    ) -> int:
        """Fetch ``b`` from its home; returns latency including
        contention, refetch policy action, and invalidation fan-out."""
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

        lat = costs.remote_fetch + self._round_trip(nid, home, now, extra)
        node.stats.remote_fetches += 1

        requesters = machine.page_requesters
        requesters[g] = requesters.get(g, 0) | nbit
        if write:
            writers = machine.page_writers
            writers[g] = writers.get(g, 0) | nbit

        if refetch:
            node.stats.refetches += 1
            machine.record_refetch(nid, g)
            lat += self.policy.on_refetch(machine, node, g)
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
