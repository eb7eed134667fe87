"""Specialized miss-path engine: per-config partial evaluation.

Every backend so far interprets the same large ``_miss`` body
(:meth:`repro.sim.engine.SimulationEngine._miss`) and re-derives, per
miss, facts that are constant for the whole run: which protocol policy
runs on a fault or refetch, whether the fabric is uniform, whether the
directory is the exact full map, and dict lookups (``homes.get(g)``,
``pmap.get(g)``, ``dir_slots.get(b)``) on keys drawn from small dense
ranges.  This module removes that interpretation overhead by
*partially evaluating* the miss path against the
:class:`~repro.common.params.SystemConfig` at machine-build time:

- :func:`source_for` assembles a per-configuration Python module from
  audited template fragments (plain source text — inspectable, golden-
  tested, and the layer a future mypyc/Cython accelerator would
  compile, since it is already monomorphic);
- :func:`code_for` compiles it with :func:`compile` and caches the code
  object per :class:`MissSpec` (the config facts that shape the code);
- :class:`SpecializedEngine` executes the module, swaps the hot dicts
  for flat columns, and binds the generated closure as its ``_miss``
  (the run loop binds ``miss = self._miss``, so the instance attribute
  cleanly overrides the interpreted method).

What gets constant-folded
-------------------------

1. **Protocol policy.**  ``ideal``/``ccnuma``/``rnuma`` faults inline
   to ``map_cc`` + a soft trap; ``scoma`` faults cold-call
   :func:`~repro.osint.services.allocate_scoma_page`.  ``rnuma``'s
   competitive refetch counter inlines to an int compare against the
   baked-in relocation threshold; the other protocols' no-op
   ``on_refetch`` disappears entirely.  Branches a protocol can never
   reach (``MAP_SCOMA`` under ``ccnuma``, ``MAP_CC`` under ``scoma``)
   are not emitted.
2. **Topology and directory shape.**  The uniform-fabric round trip is
   emitted without the ``_traverse`` branch; the full-map directory's
   inline request path is emitted without the canonical-method
   fallback gates (and vice versa for inexact representations).
3. **Costs and geometry.**  Every ``CostParams`` charge and the
   block/page shifts become integer literals.
4. **Hot dicts -> flat columns.**  ``homes``, each node's page-mapping
   dict, and the directory's block->slot dict gain ``array('q')`` /
   ``bytearray`` mirror columns indexed by page/block (when the traced
   address range is small enough; otherwise the dict fragments are
   emitted instead).  The first-touch mutation path is preserved: the
   dicts stay authoritative — the generated code writes both — so
   results, reset, and user-supplied partial placement maps behave
   exactly as in the interpreted engine.

The backend is pinned bit-identical to the frozen reference by
``tests/property/test_specialized_differential.py`` (same oracle scope
as the directory-representation suite) and needs no optional
dependencies.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.coherence.directory import (
    Directory,
    NO_OWNER,
    OUT_INVAL_SHIFT,
    OUT_OWNER_MASK,
    OUT_OWNER_SHIFT,
)
from repro.coherence.states import EXCLUSIVE, INVALID, MODIFIED, OWNED, SHARED
from repro.common.params import SystemConfig
from repro.common.records import ADDR_SHIFT
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResult
from repro.vm.page_table import MAP_CC, MAP_LOCAL, MAP_SCOMA, MAP_UNMAPPED, PageTable

__all__ = [
    "MissSpec",
    "SpecializedEngine",
    "code_for",
    "simulate_specialized",
    "source_for",
    "spec_for",
]

# The generated fragments hard-code the canonical encodings as int
# literals (that is the point of specialization); pin the assumptions
# the same way engine.py does so an encoding edit cannot silently
# desynchronize the templates.
assert (INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED) == (0, 1, 2, 3, 4)
assert (MAP_UNMAPPED, MAP_LOCAL, MAP_CC, MAP_SCOMA) == (0, 1, 2, 3)
assert NO_OWNER == -1

#: Largest block-column length the dense dict->column mirrors may
#: allocate (8 bytes per entry -> 32 MiB); traces addressing more
#: fall back to the dict-based fragments, which are still specialized
#: on protocol/topology/directory/costs.
DENSE_BLOCK_LIMIT = 1 << 22


@dataclass(frozen=True)
class MissSpec:
    """Everything about a config that shapes the generated source.

    Two configs with equal specs share one compiled module, so the
    fields must cover every fact the templates bake in — and nothing
    else, or the code cache fragments pointlessly.
    """

    protocol: str          # "ideal" | "ccnuma" | "scoma" | "rnuma"
    smp: bool              # >1 CPU per node: peer-L1 snoop loops emitted
    uniform: bool          # uniform fabric: no _traverse in round_trip
    dir_inline: bool       # exact full map: inline directory mutations
    bc_cols: bool          # finite block cache: column probes (else API)
    pc_reorders: bool      # page-cache policy reorders on hits (lru)
    dense: bool            # dict->column mirrors for homes/pmap/dslots
    threshold: int         # rnuma relocation threshold (0 otherwise)
    sram: int
    local_fill: int
    remote_fetch: int
    bus_occ: int
    ni_occ: int
    rad_occ: int
    inval_per_sharer: int
    net_latency: int
    soft_trap: int
    bp_shift: int          # page_shift - block_shift
    bpp_mask: int          # blocks_per_page - 1

    @property
    def cc_pages(self) -> bool:
        """Can a page ever be MAP_CC under this protocol?"""
        return self.protocol != "scoma"

    @property
    def scoma_pages(self) -> bool:
        """Can a page ever be MAP_SCOMA under this protocol?"""
        return self.protocol in ("scoma", "rnuma")


def spec_for(config: SystemConfig, *, dense: bool, uniform: bool,
             dir_inline: bool, bc_cols: bool, pc_reorders: bool,
             net_latency: int) -> MissSpec:
    """Derive the spec for ``config``.

    The machine-shape facts that are cheaper to read off the built
    machine (``uniform``, ``dir_inline``, ``bc_cols``, ``pc_reorders``,
    the network's resolved base latency) and the trace-dependent
    ``dense`` switch are passed in by the engine; everything else comes
    straight from the config.
    """
    costs = config.costs
    space = config.space
    return MissSpec(
        protocol=config.protocol,
        smp=config.machine.cpus_per_node > 1,
        uniform=uniform,
        dir_inline=dir_inline,
        bc_cols=bc_cols,
        pc_reorders=pc_reorders,
        dense=dense,
        threshold=config.relocation_threshold if config.protocol == "rnuma" else 0,
        sram=costs.sram_access,
        local_fill=costs.local_fill,
        remote_fetch=costs.remote_fetch,
        bus_occ=costs.bus_occupancy,
        ni_occ=costs.ni_occupancy,
        rad_occ=costs.rad_occupancy,
        inval_per_sharer=costs.invalidate_per_sharer,
        net_latency=net_latency,
        soft_trap=costs.soft_trap,
        bp_shift=space.page_shift - space.block_shift,
        bpp_mask=space.blocks_per_page - 1,
    )


# ---------------------------------------------------------------------------
# template fragments
#
# Each fragment function returns source lines at indent 0; _Src.add
# shifts them into place.  The bodies are line-for-line transcriptions
# of SimulationEngine._miss/_remote_fetch/_round_trip with the spec's
# constants substituted and its dead branches dropped — the
# differential suite pins the transcription, the golden test pins the
# text.
# ---------------------------------------------------------------------------


class _Src:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def add(self, text: str, indent: int = 0) -> None:
        pad = "    " * indent
        for line in text.splitlines():
            self.lines.append(pad + line if line.strip() else "")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _rt_inline(s: MissSpec, dst: str, extra: Optional[str] = None) -> str:
    """Round trip ``nid`` -> ``dst`` (the network's round_trip_delay),
    inlined at the call site; accumulates the latency into ``lat``.

    ``extra`` names a variable holding extra RAD occupancy (invalidation
    fan-out); None folds the occupancy to the bare constant.
    """
    src = _Src()
    src.add(f"""\
network.messages += 1
network.round_trips += 1
rt_ni = nis[nid]
rt_start = rt_ni.free_at
if now > rt_start:
    rt_start = now
rt_ni.free_at = rt_start + {s.ni_occ}
rt_ni.busy_cycles += {s.ni_occ}
rt_ni.transactions += 1
rt_wait = rt_start - now""")
    if s.uniform:
        src.add(f"arrive = now + rt_wait + {s.ni_occ + s.net_latency}")
    else:
        src.add(f"""\
arrive = traverse(nid, {dst}, now + rt_wait + {s.ni_occ}) + {s.net_latency}
rt_wait = arrive - {s.net_latency + s.ni_occ} - now""")
    occ = f"{s.rad_occ} + {extra}" if extra else str(s.rad_occ)
    src.add(f"""\
rt_rad = rads[{dst}]
rt_occ = {occ}
rt_start = rt_rad.free_at
if arrive > rt_start:
    rt_start = arrive
rt_rad.free_at = rt_start + rt_occ
rt_rad.busy_cycles += rt_occ
rt_rad.transactions += 1
lat += rt_wait + rt_start - arrive""")
    return src.text()


def _pmap_read(s: MissSpec, key: str) -> str:
    return f"pmap[{key}]" if s.dense else f"pmap.get({key}, 0)"


def _dslot_read(s: MissSpec) -> str:
    return "dslot_col[b]" if s.dense else "dir_slots.get(b, -1)"


def _dslot_refresh(s: MissSpec) -> str:
    """After a canonical read/write_request — the only two slot
    creators — mirror the (possibly fresh) slot index."""
    return "dslot_col[b] = dir_slots[b]" if s.dense else "pass"


def _home_writeback(s: MissSpec, vg: str) -> str:
    """Off-critical-path write-back to ``vg``'s home node."""
    if s.dense:
        return (f"hv = homes_col[{vg}]\n"
                f"one_way(nid, now, dst=hv if hv >= 0 else nid)")
    return f"one_way(nid, now, dst=homes.get({vg}, nid))"


def _frag_refetch_tail(s: MissSpec, writers: bool) -> str:
    src = _Src()
    src.add(f"lat += {s.remote_fetch}")
    src.add(_rt_inline(s, "home", "extra"))
    src.add("""\
ns.remote_fetches += 1
page_requesters[g] = page_requesters.get(g, 0) | nbit""")
    if writers:
        src.add("page_writers[g] = page_writers.get(g, 0) | nbit")
    src.add("""\
if refetch:
    ns.refetches += 1
    record_refetch(nid, g)""")
    if s.protocol == "rnuma":
        # RNumaPolicy.on_refetch, inlined: count only CC-mapped pages,
        # relocate when the competitive threshold is crossed.
        src.add(f"""\
    if {_pmap_read(s, 'g')} == 2:
        count = node.refetch_counters.get(g, 0) + 1
        if count >= {s.threshold}:
            lat += relocate_page_to_scoma(machine, node, g)
        else:
            node.refetch_counters[g] = count""")
    src.add("""\
elif b in clost:
    ns.coherence_misses += 1
    clost.discard(b)""")
    return src.text()


def _frag_remote_fetch_w(s: MissSpec, upgrade: str) -> str:
    """A write remote fetch, inlined at the call site (adds into
    ``lat``); ``upgrade`` is the expression for the upgrade flag."""
    src = _Src()
    src.add("home = homes_col[g]" if s.dense else "home = homes[g]")
    if s.dir_inline:
        src.add(f"""\
ds = {_dslot_read(s)}
if ds < 0:
    out = dir_write_request(b, nid, upgrade={upgrade})
    {_dslot_refresh(s)}
    refetch = out & 1
    inval = out >> {OUT_INVAL_SHIFT}
else:
    owner = dir_owners[ds]
    refetch = 0
    if not {upgrade} and owner != nid:
        refetch = (dir_held[ds] >> nid) & 1
    inval = dir_sharers[ds] & ~nbit
    dir_sharers[ds] = nbit
    dir_held[ds] = nbit
    dir_owners[ds] = nid""")
    else:
        src.add(f"""\
out = dir_write_request(b, nid, upgrade={upgrade})
{_dslot_refresh(s)}
refetch = out & 1
inval = out >> {OUT_INVAL_SHIFT}""")
    src.add(f"""\
n_inval = inval.bit_count()
ns.invalidations_sent += n_inval
extra = {s.inval_per_sharer} * n_inval
while inval:
    low = inval & -inval
    invalidate_node_block(low.bit_length() - 1, b, g)
    inval ^= low
home_node = nodes[home]
had_copy = False
for lmask2, lblocks2, lstates2 in home_node.l1_arrays:
    idx = b & lmask2
    if lblocks2[idx] == b:
        lblocks2[idx] = -1
        lstates2[idx] = 0
        had_copy = True
if had_copy:
    home_node.coherence_lost.add(b)""")
    src.add(_frag_refetch_tail(s, writers=True))
    return src.text()


def _frag_remote_fetch_r(s: MissSpec) -> str:
    """A read remote fetch, inlined at the call site (adds into ``lat``)."""
    src = _Src()
    src.add("home = homes_col[g]" if s.dense else "home = homes[g]")
    if s.dir_inline:
        src.add(f"""\
ds = {_dslot_read(s)}
if ds < 0:
    out = dir_read_request(b, nid)
    {_dslot_refresh(s)}
    refetch = out & 1
    prev_owner = ((out >> {OUT_OWNER_SHIFT}) & {OUT_OWNER_MASK}) - 1
    evict = out >> {OUT_INVAL_SHIFT}
else:
    owner = dir_owners[ds]
    refetch = (dir_held[ds] >> nid) & 1
    prev_owner = -1
    if owner >= 0 and owner != nid:
        prev_owner = owner
        dir_owners[ds] = -1
    elif owner == nid:
        dir_owners[ds] = -1
    dir_sharers[ds] |= nbit
    dir_held[ds] |= nbit
    evict = 0""")
    else:
        src.add(f"""\
out = dir_read_request(b, nid)
{_dslot_refresh(s)}
refetch = out & 1
prev_owner = ((out >> {OUT_OWNER_SHIFT}) & {OUT_OWNER_MASK}) - 1
evict = out >> {OUT_INVAL_SHIFT}""")
    src.add(f"""\
extra = 0
if evict:
    n_evict = evict.bit_count()
    ns.invalidations_sent += n_evict
    extra = {s.inval_per_sharer} * n_evict
    while evict:
        low = evict & -evict
        invalidate_node_block(low.bit_length() - 1, b, g)
        evict ^= low
if prev_owner >= 0:
    downgrade_node(prev_owner, b, g)
for lmask2, lblocks2, lstates2 in nodes[home].l1_arrays:
    idx = b & lmask2
    if lblocks2[idx] == b:
        lstates2[idx] = 1""")
    src.add(_frag_refetch_tail(s, writers=False))
    return src.text()


def _frag_victim_ops(s: MissSpec) -> str:
    """``invalidate_node_block``/``downgrade_node`` regenerated over the
    engine's prebuilt per-node tuples (``_victim_ctx``): no ``self``
    attribute walks, block-cache probes on the packed columns when the
    config has them, and the fine-grain-tag branch folded away entirely
    for protocols that never map S-COMA pages.
    """
    src = _Src()
    if s.bc_cols:
        unpack = "l1a, bcm_v, bcb_v, bcw_v, bcd_v, trows, tdirty, lost"
    else:
        unpack = "l1a, bc_invalidate, bc_downgrade, trows, tdirty, lost"
    src.add(f"""\
def invalidate_node_block(victim, b, g):
    {unpack} = vctx[victim]
    had = False
    for lmask2, lblocks2, lstates2 in l1a:
        idx = b & lmask2
        if lblocks2[idx] == b:
            lblocks2[idx] = -1
            lstates2[idx] = 0
            had = True""")
    if s.bc_cols:
        src.add("""\
    vix = b & bcm_v
    if bcb_v[vix] == b:
        bcb_v[vix] = -1
        bcw_v[vix] = 0
        bcd_v[vix] = 0
        had = True""")
    else:
        src.add("""\
    if bc_invalidate(b) >= 0:
        had = True""")
    if s.scoma_pages:
        src.add(f"""\
    row = trows.get(g)
    if row is not None:
        off = b & {s.bpp_mask}
        if row[off] != 0:
            row[off] = 0
            tdirty[g][off] = 0
            had = True""")
    src.add("""\
    if had:
        lost.add(b)""")
    src.add(f"""\
def downgrade_node(owner, b, g):
    {unpack} = vctx[owner]
    for lmask2, lblocks2, lstates2 in l1a:
        idx = b & lmask2
        if lblocks2[idx] == b:
            lstates2[idx] = 1""")
    if s.bc_cols:
        src.add("""\
    vix = b & bcm_v
    if bcb_v[vix] == b:
        bcw_v[vix] = 0
        bcd_v[vix] = 0""")
    else:
        src.add("    bc_downgrade(b)")
    if s.scoma_pages:
        src.add(f"""\
    row = trows.get(g)
    if row is not None:
        off = b & {s.bpp_mask}
        if row[off] == 2:
            row[off] = 1
            tdirty[g][off] = 0""")
    return src.text()


def _frag_preamble(s: MissSpec) -> str:
    src = _Src()
    src.add(f"""\
g = b >> {s.bp_shift}
(node, nid, nbit, ns, pmap, peers, bus, lmask, lblocks_own, lstates_own,
 clost, l1_arrays, tags, pc, bc, bcm, bcb, bcw, bcd, tag_rows) = mctx[cpu]
mapping = {_pmap_read(s, 'g')}
lat = 0
if mapping == 0:""")
    if s.dense:
        src.add("""\
    home = homes_col[g]
    if home < 0:
        home = resolve_home(homes, g, nid)
        homes_col[g] = home""")
    else:
        src.add("    home = resolve_home(homes, g, nid)")
    src.add("""\
    if home == nid:
        node.page_table.map_local(g)
        mapping = 1
    else:""")
    if s.protocol == "scoma":
        src.add("""\
        lat += allocate_scoma_page(machine, node, g)
        mapping = 3""")
    else:
        # map_cc_page, inlined: one soft trap, no frame, no shootdown.
        src.add(f"""\
        node.page_table.map_cc(g)
        ns.page_faults += 1
        lat += {s.soft_trap}
        mapping = 2""")
    src.add(f"""\
arrival = now + lat
start = bus.free_at
if arrival > start:
    start = arrival
bus.free_at = start + {s.bus_occ}
bus.busy_cycles += {s.bus_occ}
bus.transactions += 1
lat += start - arrival
now += lat""")
    return src.text()


def _frag_no_peer_state(s: MissSpec, cond: str, state: str) -> str:
    """``state = <state>`` when ``cond`` holds and no peer L1 has b."""
    if not s.smp:
        return f"if {cond}:\n    state = {state}"
    return (f"if {cond}:\n"
            f"    for pmask2, pblocks2, pstates2 in peers:\n"
            f"        if pblocks2[b & pmask2] == b:\n"
            f"            break\n"
            f"    else:\n"
            f"        state = {state}")


def _frag_bc_install(s: MissSpec, writable: bool) -> str:
    """_block_cache_install (+ mark_dirty when writable), on the columns."""
    flag = 1 if writable else 0
    src = _Src()
    src.add(f"""\
bidx = b & bcm
resident = bcb[bidx]
if resident >= 0 and resident != b and (bcw[bidx] or bcd[bidx]):
    for pmask2, pblocks2, pstates2 in l1_arrays:
        vdx = resident & pmask2
        if pblocks2[vdx] == resident:
            pblocks2[vdx] = -1
            pstates2[vdx] = 0
    dir_writeback(resident, nid)
    vg = resident >> {s.bp_shift}""")
    src.add(_home_writeback(s, "vg"), 1)
    src.add(f"""\
    ns.block_cache_writebacks += 1
bcb[bidx] = b
bcw[bidx] = {flag}
bcd[bidx] = {flag}""")
    return src.text()


def _frag_read_local(s: MissSpec) -> str:
    src = _Src()
    src.add(f"""\
ds = {_dslot_read(s)}
if ds < 0:
    prev_owner = -1
else:
    prev_owner = dir_owners[ds]
    if prev_owner == nid:
        prev_owner = -1
    elif prev_owner >= 0:
        dir_owners[ds] = -1
if b in clost:
    ns.coherence_misses += 1
    clost.discard(b)
if prev_owner >= 0:
    lat += {s.remote_fetch}""")
    src.add(_rt_inline(s, "prev_owner"), 1)
    src.add(f"""\
    downgrade_node(prev_owner, b, g)
    ns.remote_fetches += 1
else:
    lat += {s.local_fill}
    ns.local_fills += 1""")
    if s.smp:
        src.add("""\
sole = True
for pmask2, pblocks2, pstates2 in peers:
    if pblocks2[b & pmask2] == b:
        sole = False
        break
if sole and (ds < 0 or not dir_sharers[ds]):
    state = 2""")
    else:
        src.add("""\
if ds < 0 or not dir_sharers[ds]:
    state = 2""")
    return src.text()


def _frag_read_cc(s: MissSpec) -> str:
    src = _Src()
    if s.bc_cols:
        src.add("""\
bidx = b & bcm
if bcb[bidx] == b:
    flags = bcw[bidx] | (bcd[bidx] << 1)
else:
    flags = -1""")
    else:
        src.add("flags = bc.probe(b)")
    src.add(f"""\
if flags >= 0:
    ns.block_cache_hits += 1
    ns.local_fills += 1
    lat += {s.local_fill}""")
    src.add(_frag_no_peer_state(s, "flags & 1", "2"), 1)
    src.add("""\
else:
    ns.block_cache_misses += 1""")
    src.add(_frag_remote_fetch_r(s), 1)
    install = (_frag_bc_install(s, writable=False) if s.bc_cols
               else "block_cache_install(node, b, g, False, now)")
    if s.protocol == "rnuma":
        # The refetch counter may have relocated the page mid-fetch.
        src.add(f"    if {_pmap_read(s, 'g')} == 3:")
        src.add("        scoma_install(node, b, g, False)")
        src.add("    else:")
        src.add(install, 2)
    else:
        src.add(install, 1)
    return src.text()


def _frag_read_scoma(s: MissSpec) -> str:
    src = _Src()
    src.add(f"""\
row = tag_rows.get(g)
tag = row[b & {s.bpp_mask}] if row is not None else 0
if tag != 0:
    ns.page_cache_hits += 1
    ns.local_fills += 1
    lat += {s.local_fill}""")
    if s.pc_reorders:
        src.add("    pc.touch_hit(g)")
    src.add(_frag_no_peer_state(s, "tag == 2", "2"), 1)
    src.add("""\
else:
    ns.page_cache_misses += 1""")
    src.add(_frag_remote_fetch_r(s), 1)
    src.add("    scoma_install(node, b, g, False)")
    return src.text()


def _frag_write_local(s: MissSpec) -> str:
    src = _Src()
    src.add(f"ds = {_dslot_read(s)}")
    if s.dir_inline:
        src.add("""\
if ds < 0:
    inval = 0
    prev_owner = -1
else:
    prev_owner = dir_owners[ds]
    if prev_owner == nid:
        prev_owner = -1
    inval = dir_sharers[ds] & ~nbit
    dir_owners[ds] = -1
    dir_sharers[ds] = 0
    dir_held[ds] = 0""")
    else:
        src.add(f"""\
if ds < 0:
    inval = 0
    prev_owner = -1
else:
    out = dir_home_write_access(b, nid)
    prev_owner = ((out >> {OUT_OWNER_SHIFT}) & {OUT_OWNER_MASK}) - 1
    inval = out >> {OUT_INVAL_SHIFT}""")
    src.add(f"""\
if inval:
    ns.invalidations_sent += inval.bit_count()
if b in clost:
    ns.coherence_misses += 1
    clost.discard(b)
if inval or prev_owner >= 0:
    page_writers[g] = page_writers.get(g, 0) | nbit
    m = inval
    while m:
        low = m & -m
        invalidate_node_block(low.bit_length() - 1, b, g)
        m ^= low
    lat += {s.remote_fetch}
    target = prev_owner if prev_owner >= 0 else (inval & -inval).bit_length() - 1""")
    src.add(_rt_inline(s, "target"), 1)
    src.add(f"""\
    ns.remote_fetches += 1
elif st != 0:
    lat += {s.sram}
else:
    lat += {s.local_fill}
    ns.local_fills += 1""")
    if s.smp:
        src.add("""\
    for pmask2, pblocks2, pstates2 in peers:
        idx = b & pmask2
        if pblocks2[idx] == b and pstates2[idx] >= 2:
            ns.cache_to_cache += 1
            break""")
    return src.text()


def _frag_local_service(s: MissSpec) -> str:
    """Intra-node write service: peer supply / in-place upgrade / fill."""
    src = _Src()
    if s.smp:
        src.add(f"""\
supplied = False
for pmask2, pblocks2, pstates2 in peers:
    idx = b & pmask2
    if pblocks2[idx] == b and pstates2[idx] >= 2:
        supplied = True
        break
if supplied:
    ns.cache_to_cache += 1
    ns.local_fills += 1
    lat += {s.local_fill}
elif st != 0:
    lat += {s.sram}
else:
    ns.local_fills += 1
    lat += {s.local_fill}""")
    else:
        src.add(f"""\
if st != 0:
    lat += {s.sram}
else:
    ns.local_fills += 1
    lat += {s.local_fill}""")
    return src.text()


def _frag_write_cc(s: MissSpec) -> str:
    src = _Src()
    src.add(f"""\
ds = {_dslot_read(s)}
if ds >= 0 and dir_owners[ds] == nid:""")
    src.add(_frag_local_service(s), 1)
    if s.bc_cols:
        src.add("""\
    bidx = b & bcm
    if bcb[bidx] == b:
        bcw[bidx] = 1
        bcd[bidx] = 1""")
    else:
        src.add("    bc.mark_dirty(b)")
    src.add("""\
else:
    if st != 0:
        holds_copy = True
    else:""")
    if s.bc_cols:
        src.add("        holds_copy = bcb[b & bcm] == b")
    else:
        src.add("        holds_copy = bc.probe(b) >= 0")
    src.add("""\
    if not holds_copy:
        ns.block_cache_misses += 1""")
    src.add(_frag_remote_fetch_w(s, "holds_copy"), 1)
    if s.bc_cols:
        install = _frag_bc_install(s, writable=True)
    else:
        install = "block_cache_install(node, b, g, True, now)\nbc.mark_dirty(b)"
    if s.protocol == "rnuma":
        src.add(f"    if {_pmap_read(s, 'g')} == 3:")
        src.add("        scoma_install(node, b, g, True)")
        src.add("    else:")
        src.add(install, 2)
    else:
        src.add(install, 1)
    return src.text()


def _frag_write_scoma(s: MissSpec) -> str:
    src = _Src()
    src.add(f"""\
off = b & {s.bpp_mask}
row = tag_rows.get(g)
tag = row[off] if row is not None else 0
if tag == 2:""")
    src.add(_frag_local_service(s), 1)
    src.add("    ns.page_cache_hits += 1")
    if s.pc_reorders:
        src.add("    pc.touch_hit(g)")
    src.add("""\
    tags.mark_dirty(g, off)
else:
    holds_copy = st != 0 or tag == 1
    ns.page_cache_misses += 1""")
    src.add(_frag_remote_fetch_w(s, "holds_copy"), 1)
    src.add("""\
    scoma_install(node, b, g, True)
    tags.mark_dirty(g, off)""")
    return src.text()


def _frag_install_tail(s: MissSpec) -> str:
    src = _Src()
    src.add(f"""\
idx = b & lmask
vb = lblocks_own[idx]
if vb >= 0 and vb != b:
    if lstates_own[idx] >= 3:
        vg = vb >> {s.bp_shift}
        vmapping = {_pmap_read(s, 'vg')}""")
    arms = []
    if s.cc_pages:
        body = _Src()
        if s.bc_cols:
            body.add("""\
vidx = vb & bcm
if bcb[vidx] == vb:
    bcw[vidx] = 1
    bcd[vidx] = 1
else:
    dir_writeback(vb, nid)""")
            body.add(_home_writeback(s, "vg"), 1)
            body.add("    ns.block_cache_writebacks += 1")
        else:
            body.add("""\
if not bc.mark_dirty(vb):
    dir_writeback(vb, nid)""")
            body.add(_home_writeback(s, "vg"), 1)
            body.add("    ns.block_cache_writebacks += 1")
        arms.append(("vmapping == 2", body.text()))
    if s.scoma_pages:
        arms.append(("vmapping == 3", f"tags.mark_dirty(vg, vb & {s.bpp_mask})"))
    for i, (cond, body) in enumerate(arms):
        src.add(f"        {'elif' if i else 'if'} {cond}:")
        src.add(body, 3)
    src.add("""\
lblocks_own[idx] = b
lstates_own[idx] = state
return lat""")
    return src.text()


def _frag_miss(s: MissSpec) -> str:
    src = _Src()
    src.add("def _miss(cpu, b, w, st, now):")
    src.add(_frag_preamble(s), 1)

    # -- read ------------------------------------------------------------
    src.add("    if not w:")
    src.add("        state = 1")
    read_arms = [("mapping == 1", _frag_read_local(s))]
    if s.cc_pages:
        read_arms.append(("mapping == 2", _frag_read_cc(s)))
    if s.scoma_pages:
        read_arms.append(("mapping == 3", _frag_read_scoma(s)))
    if s.smp:
        # MOESI snoop-read from a peer L1 holding M/O/E.
        src.add("""\
        supplied = False
        for pmask2, pblocks2, pstates2 in peers:
            idx = b & pmask2
            if pblocks2[idx] == b:
                pst = pstates2[idx]
                if pst == 4:
                    pstates2[idx] = 3
                elif pst == 2:
                    pstates2[idx] = 1
                elif pst != 3:
                    continue
                supplied = True
                break
        if supplied:
            ns.cache_to_cache += 1
            ns.local_fills += 1""")
        src.add(f"            lat += {s.local_fill}")
        first_kw = "elif"
    else:
        first_kw = "if"
    last = len(read_arms) - 1
    for i, (cond, body) in enumerate(read_arms):
        if i == 0:
            src.add(f"        {first_kw} {cond}:")
        elif i == last:
            src.add("        else:")
        else:
            src.add(f"        elif {cond}:")
        src.add(body, 3)

    # -- write -----------------------------------------------------------
    src.add("""\
    else:
        state = 4""")
    write_arms = [("mapping == 1", _frag_write_local(s))]
    if s.cc_pages:
        write_arms.append(("mapping == 2", _frag_write_cc(s)))
    if s.scoma_pages:
        write_arms.append(("mapping == 3", _frag_write_scoma(s)))
    for i, (cond, body) in enumerate(write_arms):
        if i == 0:
            src.add(f"        if {cond}:")
        elif i == len(write_arms) - 1:
            src.add("        else:")
        else:
            src.add(f"        elif {cond}:")
        src.add(body, 3)
    if s.smp:
        # A write leaves this CPU's L1 as the only copy on the node.
        src.add("""\
        for pmask2, pblocks2, pstates2 in peers:
            idx = b & pmask2
            if pblocks2[idx] == b:
                pblocks2[idx] = -1
                pstates2[idx] = 0""")

    src.add(_frag_install_tail(s), 1)
    return src.text()


def source_for(spec: MissSpec) -> str:
    """The full generated module for ``spec``, as source text."""
    src = _Src()
    src.add(f'''\
"""Specialized miss path — generated by repro.sim.specialized.source_for().

{spec!r}

Do not edit; regenerate through source_for()/code_for().
"""

from repro.osint.placement import resolve_home
''')
    if spec.protocol == "scoma":
        src.add("from repro.osint.services import allocate_scoma_page\n")
    if spec.protocol == "rnuma":
        src.add("from repro.osint.services import relocate_page_to_scoma\n")
    src.add("""

def bind(engine):
    \"\"\"Close the generated miss path over ``engine``'s hot state.\"\"\"
    machine = engine.machine
    nodes = engine._nodes
    directory = engine._directory
    dir_slots = directory.slots
    dir_owners = directory.owners
    dir_sharers = directory.sharer_masks
    dir_held = directory.held_masks
    dir_read_request = directory.read_request
    dir_write_request = directory.write_request
    dir_writeback = directory.writeback""")
    if not spec.dir_inline:
        src.add("    dir_home_write_access = directory.home_write_access")
    src.add("""\
    network = engine._network
    nis = network.nis
    rads = network.rads
    one_way = network.one_way_delay""")
    if not spec.uniform:
        src.add("    traverse = network._traverse")
    src.add("    homes = engine.homes")
    if spec.dense:
        src.add("""\
    homes_col = engine._homes_col
    dslot_col = engine._dslot_col""")
    src.add("""\
    mctx = engine._smctx
    vctx = engine._victim_ctx
    page_requesters = machine.page_requesters
    page_writers = machine.page_writers
    record_refetch = machine.record_refetch""")
    if not spec.bc_cols and spec.cc_pages:
        src.add("    block_cache_install = engine._block_cache_install")
    if spec.scoma_pages:
        src.add("    scoma_install = engine._scoma_install")
    src.add("")
    src.add(_frag_victim_ops(spec), 1)
    src.add("")
    src.add(_frag_miss(spec), 1)
    src.add("")
    src.add("    return _miss")
    return src.text()


#: spec -> compiled code object for its generated module.
_CODE_CACHE: Dict[MissSpec, object] = {}


def code_for(spec: MissSpec):
    """Compile (once) and return the generated module's code object."""
    code = _CODE_CACHE.get(spec)
    if code is None:
        code = compile(source_for(spec), f"<specialized:{spec.protocol}>", "exec")
        _CODE_CACHE[spec] = code
    return code


def cached_specializations() -> int:
    """How many distinct modules have been compiled (for tests)."""
    return len(_CODE_CACHE)


# ---------------------------------------------------------------------------
# dense mirrors
# ---------------------------------------------------------------------------


class _DensePageTable(PageTable):
    """A PageTable with a dense ``bytearray`` mirror of its state dict.

    Every mutation funnels through :meth:`_set`/:meth:`unmap`/
    :meth:`reset` (map_local/map_cc/map_scoma all call ``_set``), so
    overriding those three keeps ``col[page]`` equal to
    ``state.get(page, MAP_UNMAPPED)`` at all times; the generated miss
    path reads the column, every other consumer keeps the dict API.
    """

    __slots__ = ("col",)

    def __init__(self, n_pages: int) -> None:
        super().__init__()
        self.col = bytearray(n_pages)

    def _set(self, page: int, state: int) -> None:
        super()._set(page, state)
        col = self.col
        if page >= len(col):
            # Defensive: a page outside the traced range (possible only
            # through direct OS-service calls) grows the mirror.
            col.extend(bytes(page + 1 - len(col)))
        col[page] = state

    def unmap(self, page: int) -> None:
        super().unmap(page)
        if page < len(self.col):
            self.col[page] = 0

    def reset(self) -> None:
        super().reset()
        self.col[:] = bytes(len(self.col))


def _fill_q(n: int) -> array:
    """A length-``n`` ``array('q')`` of -1 (two's-complement all-ones)."""
    return array("q", b"\xff" * (8 * n))


class SpecializedEngine(SimulationEngine):
    """Run-ahead scheduler + generated, config-specialized miss path.

    Inherits the drain loop unchanged; ``run()`` binds
    ``miss = self._miss``, and this class sets ``_miss`` as an instance
    attribute pointing at the generated closure, so the scheduler and
    all cold helpers stay shared with the interpreted engine.
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Sequence[object]],
        homes: Optional[Dict[int, int]] = None,
    ) -> None:
        super().__init__(config, traces, homes)
        machine = self.machine
        node0 = machine.nodes[0]

        # Trace-dependent dense switch: mirror columns are worth it only
        # when the addressed range is small enough to allocate flat.
        page_unpack = ADDR_SHIFT + config.space.page_shift
        max_page = -1
        for column in self._columns:
            if len(column):
                m = max(column)  # barrier words are negative
                if m >= 0:
                    p = m >> page_unpack
                    if p > max_page:
                        max_page = p
        if self.homes:
            p = max(self.homes)
            if p > max_page:
                max_page = p
        n_pages = max_page + 1 if max_page >= 0 else 1
        dense = (n_pages << self._block_page_shift) <= DENSE_BLOCK_LIMIT
        self._dense = dense

        self._spec = spec_for(
            config,
            dense=dense,
            uniform=self._uniform_net,
            dir_inline=self._dir_inline,
            bc_cols=node0.bc_cols is not None,
            pc_reorders=node0.page_cache.reorders_on_hit,
            net_latency=self._net_latency,
        )

        if dense:
            self._homes_col = _fill_q(n_pages)
            for page, home in self.homes.items():
                self._homes_col[page] = home
            self._dslot_col = _fill_q(n_pages << self._block_page_shift)
            for node in machine.nodes:
                dense_pt = _DensePageTable(n_pages)
                dense_pt.state.update(node.page_table.state)
                for page, state in dense_pt.state.items():
                    dense_pt.col[page] = state
                node.page_table = dense_pt
                node.page_state = dense_pt.state
        else:
            self._homes_col = None
            self._dslot_col = None

        # Per-CPU context for the generated closure — a superset of
        # SimulationEngine._mctx (same identity-stability argument; the
        # page tables were swapped above, before any binding).
        self._smctx = []
        mp = config.machine
        for c in range(mp.total_cpus):
            node = machine.nodes[self._node_of_cpu[c]]
            slot = self._cpu_slot[c]
            l1 = node.l1s[slot]
            if node.bc_cols is None:
                bcm = bcb = bcw = bcd = None
            else:
                bcm, bcb, bcw, bcd = node.bc_cols
            pmap = node.page_table.col if dense else node.page_state
            self._smctx.append(
                (
                    node,
                    node.node_id,
                    1 << node.node_id,
                    node.stats,
                    pmap,
                    node.peer_arrays[slot],
                    node.bus,
                    l1.mask,
                    l1.block_at,
                    l1.state_at,
                    node.coherence_lost,
                    node.l1_arrays,
                    node.tags,
                    node.page_cache,
                    node.block_cache,
                    bcm,
                    bcb,
                    bcw,
                    bcd,
                    node.tag_rows,
                )
            )

        # Per-node context for the generated coherence victim ops
        # (invalidate/downgrade).  Same identity-stability argument:
        # every member keeps its identity across reset().
        if self._spec.bc_cols:
            self._victim_ctx = [
                (
                    n.l1_arrays,
                    n.block_cache.mask,
                    n.block_cache.block_at,
                    n.block_cache.writable_at,
                    n.block_cache.dirty_at,
                    n.tag_rows,
                    n.tags._dirty,
                    n.coherence_lost,
                )
                for n in machine.nodes
            ]
        else:
            self._victim_ctx = [
                (
                    n.l1_arrays,
                    n.block_cache.invalidate_probe,
                    n.block_cache.downgrade,
                    n.tag_rows,
                    n.tags._dirty,
                    n.coherence_lost,
                )
                for n in machine.nodes
            ]

        namespace: Dict[str, object] = {}
        exec(code_for(self._spec), namespace)
        #: The generated closure; shadows the method for run()'s
        #: ``miss = self._miss`` binding.
        self._miss = namespace["bind"](self)

    @property
    def generated_source(self) -> str:
        """Source text of the compiled miss-path module (inspection aid:
        ``print(SpecializedEngine(cfg, traces).generated_source)``)."""
        return source_for(self._spec)

    def reset(self) -> None:
        super().reset()
        if self._dense:
            # Directory slots were cleared in place; the mirror follows.
            # homes and the dense page tables stay consistent through
            # their own reset paths (the dict is authoritative).
            self._dslot_col[:] = _fill_q(len(self._dslot_col))


def simulate_specialized(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
) -> SimulationResult:
    """Convenience: build a :class:`SpecializedEngine`, run it once."""
    return SpecializedEngine(config, traces, homes).run()
