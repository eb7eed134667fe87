"""The frozen baseline engine: classic scheduling, pre-columnar state.

:class:`ReferenceEngine` preserves *both* halves of what the fast
engine optimized away:

- the one-event-per-reference scheduler the run-ahead drain replaced
  (pop a CPU off the min-heap, execute exactly one trace item, push
  the CPU back), and
- the pre-columnar miss path: a set-based directory returning allocated
  ``FetchOutcome`` objects, a dict-of-line-objects block cache and an
  insertion-ordered-dict page cache (the frozen transcriptions in
  :mod:`repro.sim.legacy`, swapped into the machine at construction).

It is the differential-testing oracle: the columnar engine is correct
precisely when it produces bit-identical
:class:`~repro.sim.results.SimulationResult`s to this loop on every
input (see ``tests/property/test_runahead_differential.py``).  Because
it also keeps the pre-columnar structures, that equality covers the
scheduler *and* the state-layout overhaul.

The legacy directory is the exact full map, so the engine refuses a
directory configuration that can overflow (a ``limited`` one with
fewer pointers than nodes, a ``coarse`` one with regions wider than a
node) instead of silently simulating the full map for it.

Do not optimize this file.  Its value is being obviously equivalent to
the semantics the fast engine must preserve.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from repro.caches.finegrain import BLOCK_INVALID, BLOCK_READONLY, BLOCK_WRITABLE
from repro.caches.l1 import EMPTY as L1_EMPTY
from repro.coherence.states import EXCLUSIVE, INVALID, MODIFIED, OWNED, SHARED
from repro.common.errors import ConfigurationError, TraceError
from repro.common.params import SystemConfig
from repro.common.records import ADDR_SHIFT, THINK_MASK
from repro.machine.node import Node
from repro.osint.placement import resolve_home
from repro.osint.services import count_refetch
from repro.sim.engine import SimulationEngine
from repro.sim.legacy import LegacyBlockCache, LegacyDirectory, LegacyPageCache
from repro.sim.results import SimulationResult
from repro.vm.page_table import MAP_CC, MAP_LOCAL, MAP_SCOMA, MAP_UNMAPPED


class ReferenceEngine(SimulationEngine):
    """One heap pop + push per reference on the pre-columnar structures."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Sequence[object]],
        homes: Optional[Dict[int, int]] = None,
    ) -> None:
        directory = config.directory
        if (
            directory.representation == "limited"
            and directory.pointers < config.machine.nodes
        ) or (directory.representation == "coarse" and directory.region_size > 1):
            raise ConfigurationError(
                "the reference engine models only the exact full-map "
                f"directory; {directory} can overflow"
            )
        super().__init__(config, traces, homes)
        # Swap the columnar structures for their frozen transcriptions.
        # The OS services (osint.services) speak the shared public API,
        # so faults/replacement/relocation run unchanged on these.
        machine = self.machine
        machine.directory = LegacyDirectory()
        self._directory = machine.directory
        caches = config.caches
        space = config.space
        for node in machine.nodes:
            if config.protocol == "ideal":
                node.block_cache = LegacyBlockCache.infinite_cache()
            else:
                node.block_cache = LegacyBlockCache(caches.block_cache_blocks(space))
            if config.protocol in ("scoma", "rnuma"):
                frames = caches.page_cache_frames(space)
            else:
                frames = 0
            node.page_cache = LegacyPageCache(frames, policy=caches.page_replacement)
            # The columnar aliases point at the replaced cache; null
            # them so nothing silently reads stale state.
            node.bc_cols = None

    # ------------------------------------------------------------------
    # classic scheduler
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        costs = self.config.costs
        barrier_cost = costs.barrier_cost
        block_unpack = ADDR_SHIFT + self._block_shift
        think_mask = THINK_MASK
        traces = self._columns
        n_cpus = len(traces)
        l1s = self._l1_of_cpu
        nodes = [self.machine.nodes[self._node_of_cpu[c]] for c in range(n_cpus)]

        ptr = [0] * n_cpus
        finish = [0] * n_cpus
        heap = [(0, c) for c in range(n_cpus)]
        heapq.heapify(heap)
        barrier_arrivals: Dict[int, List] = {}
        # cpus currently parked at a barrier are not in the heap

        miss = self._miss  # bind
        pops = 0
        pushes = n_cpus
        refs = 0

        while heap:
            t, cpu = heapq.heappop(heap)
            pops += 1
            items = traces[cpu]
            i = ptr[cpu]
            if i >= len(items):
                finish[cpu] = t
                continue
            word = items[i]
            ptr[cpu] = i + 1
            if word >= 0:
                # Access: addr/think/write unpacked straight from the word.
                refs += 1
                think = (word >> 1) & think_mask
                w = word & 1
                now = t + think
                l1 = l1s[cpu]
                b = word >> block_unpack
                idx = b & l1.mask
                st = l1.state_at[idx] if l1.block_at[idx] == b else 0
                node = nodes[cpu]
                if st and (not w or st >= 4 or st == 2):
                    # L1 hit: read in any valid state, or write in M/E.
                    if w and st == 2:  # EXCLUSIVE -> MODIFIED
                        l1.state_at[idx] = 4
                    node.stats.l1_hits += 1
                    node.stats.busy_cycles += think + 1
                    heapq.heappush(heap, (now + 1, cpu))
                else:
                    node.stats.l1_misses += 1
                    latency = miss(cpu, b, w, st, now)
                    node.stats.busy_cycles += think + 1
                    node.stats.stall_cycles += latency
                    heapq.heappush(heap, (now + 1 + latency, cpu))
                pushes += 1
            else:
                # Barrier: park this cpu until everyone arrives.
                ident = -1 - word
                arrivals = barrier_arrivals.setdefault(ident, [])
                arrivals.append((t, cpu))
                if len(arrivals) == n_cpus:
                    release = max(at for at, _ in arrivals) + barrier_cost
                    for at, c2 in arrivals:
                        nodes[c2].stats.barrier_wait_cycles += release - at
                        heapq.heappush(heap, (release, c2))
                    pushes += n_cpus
                    del barrier_arrivals[ident]
                    self.machine.stats.barriers_crossed += 1

        if barrier_arrivals:
            waiting = sorted(barrier_arrivals)
            raise TraceError(
                f"deadlock: barriers {waiting[:4]} never completed "
                "(some trace ended before reaching them)"
            )

        # Every pop is its own "drain" of at most one reference.
        self.sched_stats = {
            "refs": refs,
            "heap_pops": pops,
            "heap_pushes": pushes,
            "drains": pops,
        }
        machine = self.machine
        return SimulationResult(
            config=self.config,
            exec_cycles=max(finish) if finish else 0,
            cpu_finish_times=finish,
            stats=machine.stats,
            refetch_counts=machine.refetch_counts,
            rw_shared_pages=frozenset(machine.read_write_shared_pages()),
            remote_pages_touched=len(machine.page_requesters),
        )

    # ------------------------------------------------------------------
    # frozen miss path (FetchOutcome objects, line objects, sets)
    # ------------------------------------------------------------------

    def _miss(self, cpu: int, b: int, w: int, st: int, now: int) -> int:
        """Service an L1 miss (or write upgrade); returns added latency."""
        node = self.machine.nodes[self._node_of_cpu[cpu]]
        l1 = self._l1_of_cpu[cpu]
        costs = self.config.costs
        g = b >> self._block_page_shift
        mapping = node.page_table.mapping_of(g)
        lat = 0

        if mapping == MAP_UNMAPPED:
            home = resolve_home(self.homes, g, node.node_id)
            if home == node.node_id:
                node.page_table.map_local(g)
                mapping = MAP_LOCAL
            else:
                lat += self._map_remote_page(self.machine, node, g)
                mapping = node.page_table.mapping_of(g)

        # Every miss is a bus transaction on the node's memory bus.
        lat += node.bus.acquire(now + lat, costs.bus_occupancy)

        if w:
            lat += self._write_miss(cpu, node, l1, b, g, st, mapping, now + lat)
        else:
            lat += self._read_miss(cpu, node, l1, b, g, mapping, now + lat)
        return lat

    # -- read ----------------------------------------------------------

    def _read_miss(self, cpu: int, node: Node, l1, b: int, g: int, mapping: int, now: int) -> int:
        costs = self.config.costs
        nid = node.node_id
        slot = self._cpu_slot[cpu]

        supplier = self._local_supplier(node, b, slot)
        if supplier is not None:
            sup_l1, sup_state = supplier
            # MOESI snoop-read: M -> O, E -> S, O stays O.
            if sup_state == MODIFIED:
                sup_l1.set_state(b, OWNED)
            elif sup_state == EXCLUSIVE:
                sup_l1.set_state(b, SHARED)
            node.stats.cache_to_cache += 1
            node.stats.local_fills += 1
            self._l1_insert(node, l1, b, SHARED, now)
            return costs.local_fill

        if mapping == MAP_LOCAL:
            out = self.machine.directory.home_read_access(b, nid)
            lat = 0
            if b in node.coherence_lost:
                node.stats.coherence_misses += 1
                node.coherence_lost.discard(b)
            if out.prev_owner >= 0:
                # Recall the dirty copy from the remote owner.
                lat += costs.remote_fetch
                lat += self.machine.network.round_trip_delay(nid, out.prev_owner, now)
                self._downgrade_node(out.prev_owner, b, g)
                node.stats.remote_fetches += 1
            else:
                lat += costs.local_fill
                node.stats.local_fills += 1
            state = EXCLUSIVE if self._sole_copy(node, b, slot, g) else SHARED
            self._l1_insert(node, l1, b, state, now)
            return lat

        if mapping == MAP_CC:
            line = node.block_cache.lookup(b)
            if line is not None:
                node.stats.block_cache_hits += 1
                node.stats.local_fills += 1
                state = (
                    EXCLUSIVE
                    if line.writable and self._no_local_copies(node, b, slot)
                    else SHARED
                )
                self._l1_insert(node, l1, b, state, now)
                return costs.local_fill
            node.stats.block_cache_misses += 1
            lat = self._remote_fetch(node, b, g, False, now)
            # R-NUMA may have relocated the page mid-fetch.
            if node.page_table.mapping_of(g) == MAP_SCOMA:
                self._scoma_install(node, b, g, writable=False)
            else:
                self._block_cache_install(node, b, g, writable=False, now=now)
            self._l1_insert(node, l1, b, SHARED, now)
            return lat

        # MAP_SCOMA
        off = b & self._bpp_mask
        tag = node.tags.get(g, off)
        if tag != BLOCK_INVALID:
            node.stats.page_cache_hits += 1
            node.stats.local_fills += 1
            if node.page_cache.reorders_on_hit:
                node.page_cache.touch_hit(g)
            state = (
                EXCLUSIVE
                if tag == BLOCK_WRITABLE and self._no_local_copies(node, b, slot)
                else SHARED
            )
            self._l1_insert(node, l1, b, state, now)
            return costs.local_fill
        node.stats.page_cache_misses += 1
        lat = self._remote_fetch(node, b, g, False, now)
        if node.page_table.mapping_of(g) == MAP_SCOMA:
            self._scoma_install(node, b, g, writable=False)
        self._l1_insert(node, l1, b, SHARED, now)
        return lat

    # -- write ---------------------------------------------------------

    def _write_miss(self, cpu: int, node: Node, l1, b: int, g: int, st: int, mapping: int, now: int) -> int:
        costs = self.config.costs
        nid = node.node_id
        slot = self._cpu_slot[cpu]
        directory = self.machine.directory

        if mapping == MAP_LOCAL:
            out = directory.home_write_access(b, nid)
            lat = 0
            node.stats.invalidations_sent += len(out.invalidated)
            if b in node.coherence_lost:
                node.stats.coherence_misses += 1
                node.coherence_lost.discard(b)
            if out.invalidated or out.prev_owner >= 0:
                # Write-sharing traffic: the home's write displaced
                # remote copies (Table 4's read-write classification).
                writers = self.machine.page_writers
                writers[g] = writers.get(g, 0) | (1 << nid)
            remote_work = out.prev_owner >= 0 or out.invalidated
            for victim in out.invalidated:
                self._invalidate_node_block(victim, b, g)
            if remote_work:
                lat += costs.remote_fetch
                target = out.prev_owner if out.prev_owner >= 0 else out.invalidated[0]
                lat += self.machine.network.round_trip_delay(nid, target, now)
                node.stats.remote_fetches += 1
            elif st != INVALID:
                lat += costs.sram_access  # local upgrade, no data transfer
            else:
                supplier = self._local_supplier(node, b, slot)
                lat += costs.local_fill
                node.stats.local_fills += 1
                if supplier is not None:
                    node.stats.cache_to_cache += 1
            self._invalidate_local_copies(node, b, slot)
            self._l1_insert(node, l1, b, MODIFIED, now)
            return lat

        if mapping == MAP_CC:
            if directory.owner_of(b) == nid:
                # Node already has exclusive rights: intra-node service.
                lat = self._serve_owned_write_locally(node, b, st, slot)
                node.block_cache.mark_dirty(b)
                self._invalidate_local_copies(node, b, slot)
                self._l1_insert(node, l1, b, MODIFIED, now)
                return lat
            holds_copy = st != INVALID or node.block_cache.lookup(b) is not None
            if not holds_copy:
                node.stats.block_cache_misses += 1
            lat = self._remote_fetch(node, b, g, True, now, upgrade=holds_copy)
            if node.page_table.mapping_of(g) == MAP_SCOMA:
                self._scoma_install(node, b, g, writable=True)
            else:
                self._block_cache_install(node, b, g, writable=True, now=now)
                node.block_cache.mark_dirty(b)
            self._invalidate_local_copies(node, b, slot)
            self._l1_insert(node, l1, b, MODIFIED, now)
            return lat

        # MAP_SCOMA
        off = b & self._bpp_mask
        tag = node.tags.get(g, off)
        if tag == BLOCK_WRITABLE:
            lat = self._serve_owned_write_locally(node, b, st, slot)
            node.stats.page_cache_hits += 1
            if node.page_cache.reorders_on_hit:
                node.page_cache.touch_hit(g)
            self._invalidate_local_copies(node, b, slot)
            self._l1_insert(node, l1, b, MODIFIED, now)
            return lat
        holds_copy = st != INVALID or tag == BLOCK_READONLY
        node.stats.page_cache_misses += 1
        lat = self._remote_fetch(node, b, g, True, now, upgrade=holds_copy)
        if node.page_table.mapping_of(g) == MAP_SCOMA:
            self._scoma_install(node, b, g, writable=True)
        self._invalidate_local_copies(node, b, slot)
        self._l1_insert(node, l1, b, MODIFIED, now)
        return lat

    def _serve_owned_write_locally(self, node: Node, b: int, st: int, slot: int) -> int:
        """Write to a block the node already owns: supply from a peer L1,
        the node-level store, or upgrade in place."""
        costs = self.config.costs
        supplier = self._local_supplier(node, b, slot)
        if supplier is not None:
            node.stats.cache_to_cache += 1
            node.stats.local_fills += 1
            return costs.local_fill
        if st != INVALID:
            return costs.sram_access  # upgrade of a resident S/O line
        node.stats.local_fills += 1
        return costs.local_fill

    # -- shared helpers --------------------------------------------------

    def _local_supplier(self, node: Node, b: int, exclude_slot: int):
        """A peer L1 on this node that must source the block (M/O/E)."""
        for l1 in node.peer_l1s[exclude_slot]:
            idx = b & l1.mask
            if l1.block_at[idx] == b:
                st = l1.state_at[idx]
                if st == MODIFIED or st == OWNED or st == EXCLUSIVE:
                    return l1, st
        return None

    def _no_local_copies(self, node: Node, b: int, exclude_slot: int) -> bool:
        for l1 in node.peer_l1s[exclude_slot]:
            if l1.block_at[b & l1.mask] == b:
                return False
        return True

    def _invalidate_local_copies(self, node: Node, b: int, exclude_slot: int) -> None:
        for l1 in node.peer_l1s[exclude_slot]:
            idx = b & l1.mask
            if l1.block_at[idx] == b:
                l1.block_at[idx] = L1_EMPTY
                l1.state_at[idx] = INVALID

    def _scoma_install(self, node: Node, b: int, g: int, writable: bool) -> None:
        """Record a fetched block in the page-cache tags and LRM order."""
        off = b & self._bpp_mask
        node.tags.set(g, off, BLOCK_WRITABLE if writable else BLOCK_READONLY)
        node.page_cache.touch_miss(g)

    def _sole_copy(self, node: Node, b: int, exclude_slot: int, g: int) -> bool:
        """True when no other cache anywhere holds the block (grants E)."""
        if not self._no_local_copies(node, b, exclude_slot):
            return False
        return not self.machine.directory.sharers_of(b)

    def _l1_insert(self, node: Node, l1, b: int, state: int, now: int) -> None:
        """Insert into an L1, acting on the returned victim tuple."""
        victim = l1.insert(b, state)
        if victim is not None:
            vb, vstate = victim
            if vstate == MODIFIED or vstate == OWNED:
                self._l1_writeback(node, vb, now)

    def _l1_writeback(self, node: Node, vb: int, now: int) -> None:
        """A dirty L1 line drains to its node-level backing store."""
        vg = vb >> self._block_page_shift
        vmapping = node.page_table.mapping_of(vg)
        if vmapping == MAP_CC:
            line = node.block_cache.lookup(vb)
            if line is not None:
                line.dirty = True
                line.writable = True
            else:
                # No block-cache frame (displaced): write straight home.
                self.machine.directory.writeback(vb, node.node_id)
                self.machine.network.one_way_delay(
                    node.node_id, now, dst=self.homes.get(vg, node.node_id)
                )
                node.stats.block_cache_writebacks += 1
        # MAP_LOCAL, MAP_SCOMA: local memory (the page-cache frame)
        # absorbs the write-back for free.

    def _block_cache_install(self, node: Node, b: int, g: int, writable: bool, now: int) -> None:
        """Install a freshly fetched block, evicting as needed."""
        bc = node.block_cache
        victim = bc.victim_for(b)
        if victim is not None and (victim.writable or victim.dirty):
            for l1 in node.l1s:
                st = l1.invalidate(victim.block)
                if st == MODIFIED or st == OWNED:
                    victim.dirty = True
            self.machine.directory.writeback(victim.block, node.node_id)
            vg = victim.block >> self._block_page_shift
            self.machine.network.one_way_delay(
                node.node_id, now, dst=self.homes.get(vg, node.node_id)
            )
            node.stats.block_cache_writebacks += 1
        bc.insert(b, writable)

    # -- inter-node ------------------------------------------------------

    def _remote_fetch(
        self, node: Node, b: int, g: int, write: bool, now: int, upgrade: bool = False
    ) -> int:
        """Fetch ``b`` from its home; returns latency including
        contention, R-NUMA's refetch counting, and invalidation fan-out."""
        machine = self.machine
        costs = self.config.costs
        nid = node.node_id
        home = self.homes[g]

        if write:
            out = machine.directory.write_request(b, nid, upgrade=upgrade)
            node.stats.invalidations_sent += len(out.invalidated)
            extra = costs.invalidate_per_sharer * len(out.invalidated)
            for victim in out.invalidated:
                self._invalidate_node_block(victim, b, g)
            # The home node's own processor caches lose their copies too.
            self._invalidate_node_block(home, b, g)
        else:
            out = machine.directory.read_request(b, nid)
            extra = 0
            if out.prev_owner >= 0:
                self._downgrade_node(out.prev_owner, b, g)
            self._downgrade_node(home, b, g)

        lat = costs.remote_fetch
        lat += machine.network.round_trip_delay(nid, home, now, extra)
        node.stats.remote_fetches += 1

        requesters = machine.page_requesters
        requesters[g] = requesters.get(g, 0) | (1 << nid)
        if write:
            writers = machine.page_writers
            writers[g] = writers.get(g, 0) | (1 << nid)

        if out.refetch:
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
        v = self.machine.nodes[victim_node]
        had_copy = False
        for l1 in v.l1s:
            idx = b & l1.mask
            if l1.block_at[idx] == b:
                l1.block_at[idx] = L1_EMPTY
                l1.state_at[idx] = INVALID
                had_copy = True
        if v.block_cache.invalidate(b) is not None:
            had_copy = True
        if v.tags.is_mapped(g):
            off = b & self._bpp_mask
            if v.tags.get(g, off) != BLOCK_INVALID:
                v.tags.set(g, off, BLOCK_INVALID)
                had_copy = True
        if had_copy:
            v.coherence_lost.add(b)

    def _downgrade_node(self, owner_node: int, b: int, g: int) -> None:
        """The previous exclusive owner keeps a shared, clean copy."""
        v = self.machine.nodes[owner_node]
        for l1 in v.l1s:
            idx = b & l1.mask
            if l1.block_at[idx] == b:
                l1.state_at[idx] = SHARED
        line = v.block_cache.lookup(b)
        if line is not None:
            line.dirty = False
            line.writable = False
        if v.tags.is_mapped(g):
            off = b & self._bpp_mask
            if v.tags.get(g, off) == BLOCK_WRITABLE:
                v.tags.set(g, off, BLOCK_READONLY)


def simulate_reference(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
) -> SimulationResult:
    """Run the frozen baseline engine; the differential-testing oracle."""
    return ReferenceEngine(config, traces, homes).run()
