"""CC-NUMA remote block cache (the paper's "cluster cache").

A direct-mapped, write-back SRAM cache holding *remote* blocks only
(paper, Section 2.1).  It acts as another level of the node's cache
hierarchy behind the four processor caches.

Inclusion policy (paper, Section 4): the block cache maintains inclusion
with the processor caches for blocks held **read-write** but not for
blocks held read-only.  Evicting a dirty/exclusive frame therefore forces
the L1 copies out (the engine performs that), while evicting a read-only
frame leaves any L1 copies in place.

State layout
------------

Line metadata lives in three columns indexed by frame ``block & mask``:
``block_at`` holds resident block numbers (:data:`EMPTY` = −1 marks a
free frame) and ``writable_at`` / ``dirty_at`` the line's flags.  The
miss path reads and writes these columns inline (``Node.bc_cols``), and
every method below is written once against them, so three geometries
share one representation:

- a finite cache: an ``array('q')`` and two ``bytearray`` columns of
  ``num_blocks`` frames;
- the paper's "infinite block cache" normalization baseline
  (:meth:`infinite_cache`): ``mask`` is −1, so every block is its own
  frame, and the columns are dicts keyed by block (``block_at`` reads
  :data:`EMPTY` for a block never filled);
- a ``num_blocks`` of 0, a machine with no block cache: ``mask`` 0 over
  columns that read empty and drop every store, so nothing is ever
  resident and every access refetches.

The packed-int probes (:meth:`probe`, :meth:`victim_probe`,
:meth:`invalidate_probe`) never allocate; the object-returning methods
(:meth:`lookup`, :meth:`insert`, …) remain for cold paths and tests and
return **snapshots** — mutating a returned line does not write through.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import repeat
from typing import List, Optional

from repro.common.errors import ConfigurationError

#: Sentinel in ``block_at`` for a frame with no resident line.
EMPTY = -1

#: packed line flags (probe/victim_probe results)
FLAG_WRITABLE = 1
FLAG_DIRTY = 2


class BlockCacheLine:
    """Read-only snapshot of one frame's metadata (cold paths only)."""

    __slots__ = ("block", "writable", "dirty")

    def __init__(self, block: int, writable: bool, dirty: bool) -> None:
        self.block = block
        self.writable = writable
        self.dirty = dirty


class _NoFrame:
    """A column of a cache with no frames: every slot reads ``value``
    and every store is dropped."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __getitem__(self, idx: int) -> int:
        return self.value

    def __setitem__(self, idx: int, value: int) -> None:
        pass


class BlockCache:
    """Direct-mapped write-back cache indexed by block number.

    ``num_blocks`` may be any non-negative count; a non-power-of-two is
    rejected (the real device indexes with address bits).  ``infinite``
    builds the ideal-machine variant with no evictions.
    """

    __slots__ = (
        "num_blocks",
        "mask",
        "block_at",
        "writable_at",
        "dirty_at",
        "_blocks",
    )

    def __init__(self, num_blocks: int, infinite: bool = False) -> None:
        if num_blocks < 0:
            raise ConfigurationError("num_blocks must be >= 0")
        if not infinite and num_blocks and (num_blocks & (num_blocks - 1)) != 0:
            raise ConfigurationError(
                f"block cache size must be a power of two blocks, got {num_blocks}"
            )
        self.num_blocks = num_blocks
        # ``_blocks`` iterates the values of ``block_at`` (a live view
        # for the dict column); resident_blocks drops the EMPTY ones.
        if infinite:
            self.mask = -1
            self.block_at = defaultdict(repeat(EMPTY).__next__)
            self.writable_at = {}
            self.dirty_at = {}
            self._blocks = self.block_at.values()
        elif num_blocks:
            self.mask = num_blocks - 1
            self.block_at = array("q", [EMPTY]) * num_blocks
            self.writable_at = bytearray(num_blocks)
            self.dirty_at = bytearray(num_blocks)
            self._blocks = self.block_at
        else:
            self.mask = 0
            self.block_at = _NoFrame(EMPTY)
            self.writable_at = self.dirty_at = _NoFrame(0)
            self._blocks = ()

    @classmethod
    def infinite_cache(cls) -> "BlockCache":
        """The ideal CC-NUMA block cache: holds everything, never evicts."""
        return cls(num_blocks=1, infinite=True)

    @property
    def is_infinite(self) -> bool:
        return self.mask == -1

    # ------------------------------------------------------------------
    # packed-int probes (the miss path; never allocate)
    # ------------------------------------------------------------------

    def probe(self, block: int) -> int:
        """Flags of the resident line for ``block``, or −1 on a miss."""
        idx = block & self.mask
        if self.block_at[idx] != block:
            return -1
        return self.writable_at[idx] | (self.dirty_at[idx] << 1)

    def victim_probe(self, block: int) -> int:
        """Line that inserting ``block`` would displace, packed as
        ``resident_block << 2 | writable | dirty << 1`` (−1 if free)."""
        idx = block & self.mask
        resident = self.block_at[idx]
        if resident == EMPTY or resident == block:
            return -1
        return (resident << 2) | self.writable_at[idx] | (self.dirty_at[idx] << 1)

    def fill(self, block: int, writable: bool) -> None:
        """Install ``block`` clean, overwriting the frame.

        The caller handles the displaced line first (via
        :meth:`victim_probe`).
        """
        idx = block & self.mask
        self.block_at[idx] = block
        self.writable_at[idx] = 1 if writable else 0
        self.dirty_at[idx] = 0

    def invalidate_probe(self, block: int) -> int:
        """Drop ``block``; returns its flags (−1 if absent)."""
        idx = block & self.mask
        if self.block_at[idx] != block:
            return -1
        flags = self.writable_at[idx] | (self.dirty_at[idx] << 1)
        self.block_at[idx] = EMPTY
        self.writable_at[idx] = 0
        self.dirty_at[idx] = 0
        return flags

    def mark_dirty(self, block: int) -> bool:
        """Mark a resident line dirty (and writable); True if present."""
        idx = block & self.mask
        if self.block_at[idx] != block:
            return False
        self.writable_at[idx] = 1
        self.dirty_at[idx] = 1
        return True

    def downgrade(self, block: int) -> None:
        """Resident line becomes clean and read-only (owner downgrade)."""
        idx = block & self.mask
        if self.block_at[idx] == block:
            self.writable_at[idx] = 0
            self.dirty_at[idx] = 0

    # ------------------------------------------------------------------
    # snapshot API (cold paths, OS services, tests)
    # ------------------------------------------------------------------

    def _snapshot(self, block: int, flags: int) -> BlockCacheLine:
        return BlockCacheLine(
            block, bool(flags & FLAG_WRITABLE), bool(flags & FLAG_DIRTY)
        )

    def lookup(self, block: int) -> Optional[BlockCacheLine]:
        """Snapshot of the resident line for ``block`` (None on a miss)."""
        flags = self.probe(block)
        if flags < 0:
            return None
        return self._snapshot(block, flags)

    def victim_for(self, block: int) -> Optional[BlockCacheLine]:
        """Snapshot of the line inserting ``block`` would displace."""
        packed = self.victim_probe(block)
        if packed < 0:
            return None
        return self._snapshot(packed >> 2, packed & 3)

    def insert(self, block: int, writable: bool) -> Optional[BlockCacheLine]:
        """Install ``block``; returns a snapshot of the displaced line."""
        victim = self.victim_for(block)
        self.fill(block, writable)
        return victim

    def invalidate(self, block: int) -> Optional[BlockCacheLine]:
        """Drop ``block``; returns a snapshot of the dropped line."""
        flags = self.invalidate_probe(block)
        if flags < 0:
            return None
        return self._snapshot(block, flags)

    def resident_blocks(self) -> List[int]:
        return [b for b in self._blocks if b != EMPTY]

    def lines_of_page(self, page_blocks) -> List[BlockCacheLine]:
        """Snapshots of resident lines whose block falls in ``page_blocks``."""
        hits = []
        for b in page_blocks:
            line = self.lookup(b)
            if line is not None:
                hits.append(line)
        return hits

    def __len__(self) -> int:
        return len(self.resident_blocks())
