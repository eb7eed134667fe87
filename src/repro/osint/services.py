"""OS page-operation services: mapping, allocation, replacement,
relocation.

Each function mutates the machine and returns the cycle cost charged to
the processor whose access triggered the operation.  Costs follow the
paper's Table 2 decomposition (see :class:`repro.common.params.CostParams`):
a page operation costs ``soft_trap + tlb_shootdown + setup`` plus a
per-flushed-block term, spanning 3000~11500 cycles.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.caches.finegrain import BLOCK_READONLY, BLOCK_WRITABLE
from repro.coherence.states import EXCLUSIVE, INVALID, OWNED
from repro.common.errors import ProtocolError
from repro.machine.machine import Machine
from repro.machine.node import Node


def _page_hits(blocks_arr, num_sets: int, mask: int, base: int, bpp: int):
    """(set index, block) pairs of a page's blocks resident in a
    direct-mapped tag column.

    ``blocks_arr`` is the cache's ``block_at`` column, ``base`` the
    page's first block number, ``bpp`` the (power-of-two) blocks per
    page.  With more sets than page blocks the candidate sets form one
    contiguous, alignment-guaranteed segment ``[base & mask, +bpp)``
    where set ``s0+i`` can only hold block ``base+i``.  With fewer sets
    the whole column is scanned instead (it is the shorter side).
    """
    if num_sets <= bpp:
        shift = bpp.bit_length() - 1
        page = base >> shift
        return [
            (idx, b)
            for idx, b in enumerate(blocks_arr)
            if b >= 0 and (b >> shift) == page
        ]
    s0 = base & mask
    return [
        (s0 + i, base + i)
        for i, b in enumerate(blocks_arr[s0 : s0 + bpp])
        if b == base + i
    ]


def map_cc_page(machine: Machine, node: Node, page: int) -> int:
    """Handle a fault by mapping ``page`` CC-NUMA (remote global PA).

    Cheap: one soft trap to update the page table; no frame, no
    shootdown, no flushing.
    """
    node.page_table.map_cc(page)
    node.stats.page_faults += 1
    return machine.config.costs.soft_trap


def replace_scoma_page(machine: Machine, node: Node, victim: int) -> int:
    """Evict ``victim`` from the node's page cache.

    Flushes every locally valid block back to the home node (the
    directory forgets this node held them), invalidates L1 copies,
    shoots down the node's TLBs, and unmaps the page.

    Returns the number of blocks flushed (the caller folds it into the
    page-operation cost).
    """
    space = machine.config.space
    offsets = node.tags.valid_offsets(victim)
    page_base_block = victim << (space.page_shift - space.block_shift)
    flush = machine.directory.flush
    node_id = node.node_id
    l1_arrays = node.l1_arrays
    for off in offsets:
        block = page_base_block + off
        flush(block, node_id)
        for lmask, lblocks, lstates in l1_arrays:
            idx = block & lmask
            if lblocks[idx] == block:
                lblocks[idx] = -1
                lstates[idx] = INVALID
    for tlb in node.tlbs:
        tlb.shoot_down(victim)
    node.stats.tlb_shootdowns += 1
    node.tags.unmap_page(victim)
    node.xlat.remove(victim)
    node.page_cache.evict(victim)
    node.page_table.unmap(victim)
    node.stats.page_replacements += 1
    node.stats.blocks_flushed += len(offsets)
    return len(offsets)


def allocate_scoma_page(machine: Machine, node: Node, page: int) -> int:
    """Handle a fault by allocating ``page`` an S-COMA page-cache frame.

    If no frame is free, the least-recently-missed page is replaced
    first; the whole operation is one OS intervention, so the cost is a
    single page operation whose flush term covers the victim's blocks.
    """
    if node.page_cache.capacity == 0:
        raise ProtocolError("node has no page cache; cannot map S-COMA")
    flushed = 0
    if not node.page_cache.has_free_frame:
        victim = node.page_cache.victim()
        flushed = replace_scoma_page(machine, node, victim)
    node.page_cache.insert(page)
    node.tags.map_page(page)
    node.xlat.install(page)
    node.page_table.map_scoma(page)
    for tlb in node.tlbs:
        tlb.fill(page)
    node.stats.page_faults += 1
    node.stats.page_allocations += 1
    return machine.config.costs.page_op_cost(flushed)


def _collect_held_blocks(node: Node, page: int, space) -> List[Tuple[int, bool, bool]]:
    """All blocks of ``page`` the node currently caches.

    Returns (block, writable, dirty) triples, merging block-cache lines
    with L1-only copies (read-only blocks may live in L1s without a
    block-cache frame, per the relaxed-inclusion policy).
    """
    base = page << (space.page_shift - space.block_shift)
    bpp = space.blocks_per_page
    held = {}
    bc = node.block_cache
    bcb = getattr(bc, "block_at", None)
    if bcb is not None and not bc.is_infinite and bc.num_blocks:
        bcw, bcd = bc.writable_at, bc.dirty_at
        for idx, block in _page_hits(bcb, bc.num_blocks, bc.mask, base, bpp):
            held[block] = [bcw[idx] != 0, bcd[idx] != 0]
    else:
        # Infinite, absent, or a legacy (frozen-reference) cache without
        # the packed columns: go through the snapshot API.
        for block in range(base, base + bpp):
            line = bc.lookup(block)
            if line is not None:
                held[block] = [line.writable, line.dirty]
    # MOESI encoding: writable iff state >= EXCLUSIVE, dirty iff >= OWNED.
    for lmask, lblocks, lstates in node.l1_arrays:
        for idx, block in _page_hits(lblocks, lmask + 1, lmask, base, bpp):
            state = lstates[idx]
            writable = state >= EXCLUSIVE
            dirty = state >= OWNED
            entry = held.get(block)
            if entry is not None:
                entry[0] = entry[0] or writable
                entry[1] = entry[1] or dirty
            else:
                held[block] = [writable, dirty]
    return [(b, w, d) for b, (w, d) in held.items()]


def relocate_page_to_scoma(machine: Machine, node: Node, page: int) -> int:
    """R-NUMA relocation: re-map a CC-NUMA page into the page cache.

    In the default ``"local"`` relocation mode (an aggressive
    implementation with hardware support for moving blocks), every block
    the node holds — block-cache and L1 copies — moves straight into the
    freshly allocated frame; only referenced blocks are replicated,
    which is what keeps relocation cheap (paper, Section 5.1).  The
    directory is *not* involved: the node keeps the very same copies,
    just in different local storage.

    In ``"flush"`` mode (a less aggressive implementation, the paper's
    C_relocate ~ C_allocate case that pushes the worst-case bound from
    2 toward 3) the held blocks are flushed back to the home node
    instead, and the page starts life in the page cache empty.

    The L1 lines and TLB entries must be invalidated either way because
    the page's physical address changes.
    """
    space = machine.config.space
    if node.page_cache.capacity == 0:
        raise ProtocolError("node has no page cache; cannot relocate")
    move_locally = machine.config.relocation_mode == "local"

    held = _collect_held_blocks(node, page, space)

    flushed = 0
    if not node.page_cache.has_free_frame:
        victim = node.page_cache.victim()
        flushed = replace_scoma_page(machine, node, victim)

    # Unmap the CC mapping and install the S-COMA one.
    node.page_table.unmap(page)
    node.page_cache.insert(page)
    node.tags.map_page(page)
    node.xlat.install(page)
    node.page_table.map_scoma(page)

    off_mask = space.blocks_per_page - 1
    tag_row = node.tags.rows[page]
    dirty_row = node.tags._dirty[page]
    bc = node.block_cache
    bc_invalidate = getattr(bc, "invalidate_probe", None) or bc.invalidate
    l1_arrays = node.l1_arrays
    for block, writable, dirty in held:
        off = block & off_mask
        if move_locally:
            tag_row[off] = BLOCK_WRITABLE if writable else BLOCK_READONLY
            if dirty:
                dirty_row[off] = 1
        else:
            # Flush home: the node relinquishes the block entirely and
            # will refetch it on demand.
            machine.directory.flush(block, node.node_id)
            node.stats.blocks_flushed += 1
        bc_invalidate(block)
        for lmask, lblocks, lstates in l1_arrays:
            idx = block & lmask
            if lblocks[idx] == block:
                lblocks[idx] = -1
                lstates[idx] = INVALID
    for tlb in node.tlbs:
        tlb.shoot_down(page)
        tlb.fill(page)
    node.stats.tlb_shootdowns += 1

    node.refetch_counters.pop(page, None)
    node.stats.relocations += 1
    node.stats.relocation_interrupts += 1
    return machine.config.costs.page_op_cost(len(held) + flushed)
