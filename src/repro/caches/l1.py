"""Per-processor L1 data cache.

Direct-mapped, write-back, write-allocate, with MOESI line states
(see :mod:`repro.coherence.states`).  The paper models 8-KB direct-mapped
processor caches to compensate for scaled-down data sets; we default to
the same.

The cache stores no data — only (tag, state) per set — because the
simulator is timing-only.  Both columns are preallocated flat arrays
indexed by set: ``block_at`` is an ``array('q')`` of resident block
numbers (:data:`EMPTY` = −1 marks a free set) and ``state_at`` is a
``bytearray`` of MOESI states (0 = INVALID everywhere a set is free).
The ``mask``, ``block_at``, and ``state_at`` attributes are public on
purpose: the simulation engine inlines the hit check on its hot path —
two C-speed array loads, no dict probe, no method call — and both
buffers keep their identity for the lifetime of the cache, so the
engine may hoist them into locals across a whole run.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.coherence.states import INVALID, MODIFIED, OWNED, SHARED
from repro.common.errors import ConfigurationError

#: Sentinel in ``block_at`` for a set with no resident line.  Block
#: numbers are non-negative (addresses are), so −1 can never collide.
EMPTY = -1


class L1Cache:
    """A direct-mapped MOESI cache indexed by block number.

    Parameters
    ----------
    num_blocks:
        Number of block frames (cache size / block size).  Must be a
        power of two so set selection is a mask.
    """

    __slots__ = ("num_blocks", "mask", "block_at", "state_at")

    def __init__(self, num_blocks: int) -> None:
        if num_blocks <= 0 or (num_blocks & (num_blocks - 1)) != 0:
            raise ConfigurationError(
                f"L1 num_blocks must be a positive power of two, got {num_blocks}"
            )
        self.num_blocks = num_blocks
        self.mask = num_blocks - 1
        # set index -> resident block number / MOESI state.  Invariant:
        # block_at[i] == EMPTY  <=>  state_at[i] == INVALID.
        self.block_at: array = array("q", [EMPTY]) * num_blocks
        self.state_at: bytearray = bytearray(num_blocks)

    def state_of(self, block: int) -> int:
        """MOESI state of ``block``, or INVALID if not resident."""
        idx = block & self.mask
        if self.block_at[idx] == block:
            return self.state_at[idx]
        return INVALID

    def contains(self, block: int) -> bool:
        return self.state_of(block) != INVALID

    def victim_for(self, block: int) -> Optional[Tuple[int, int]]:
        """The (block, state) that inserting ``block`` would evict.

        Returns None when the target set is empty or already holds
        ``block``.
        """
        idx = block & self.mask
        resident = self.block_at[idx]
        if resident == EMPTY or resident == block:
            return None
        return resident, self.state_at[idx]

    def insert(self, block: int, state: int) -> Optional[Tuple[int, int]]:
        """Install ``block`` with ``state``; returns the evicted line.

        The caller is responsible for acting on the eviction (write-back,
        coherence bookkeeping); the returned (block, state) pair
        describes what was displaced.
        """
        if state == INVALID:
            raise ConfigurationError("cannot insert a line in INVALID state")
        victim = self.victim_for(block)
        idx = block & self.mask
        self.block_at[idx] = block
        self.state_at[idx] = state
        return victim

    def set_state(self, block: int, state: int) -> None:
        """Change the state of a resident line (INVALID removes it)."""
        idx = block & self.mask
        if self.block_at[idx] != block:
            return
        if state == INVALID:
            self.block_at[idx] = EMPTY
            self.state_at[idx] = INVALID
        else:
            self.state_at[idx] = state

    def invalidate(self, block: int) -> int:
        """Remove ``block``; returns its prior state (INVALID if absent)."""
        idx = block & self.mask
        if self.block_at[idx] != block:
            return INVALID
        state = self.state_at[idx]
        self.block_at[idx] = EMPTY
        self.state_at[idx] = INVALID
        return state

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (unordered)."""
        return [b for b in self.block_at if b != EMPTY]

    def has_dirty(self, block: int) -> bool:
        return self.state_of(block) in (MODIFIED, OWNED)

    def downgrade_to_shared(self, block: int) -> bool:
        """M/E/O -> S; returns True if the line was dirty (M or O)."""
        state = self.state_of(block)
        if state == INVALID:
            return False
        dirty = state == MODIFIED or state == OWNED
        self.set_state(block, SHARED)
        return dirty

    def __len__(self) -> int:
        return self.num_blocks - self.block_at.count(EMPTY)
