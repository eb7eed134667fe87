"""Frozen transcription of the pre-columnar memory-system structures.

The columnar miss path (bitmask directory, array-backed block and page
caches) replaced the set/dict/object structures these classes
preserve.  They are the structure-level differential oracle — the
same role :class:`repro.sim.reference.ReferenceEngine` plays for the
scheduler: the new layouts are correct precisely when they are
observationally identical to these under any operation stream (see
``tests/property/test_memory_layout_differential.py``), and the
reference engine runs on these structures so the engine-level
differential covers the structure layouts, not just the scheduler.

Do not optimize this file.  Its value is being obviously equivalent to
the semantics the packed layouts must preserve.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, ProtocolError

NO_OWNER = -1


# ----------------------------------------------------------------------
# directory (set-based, FetchOutcome-returning)
# ----------------------------------------------------------------------


class LegacyDirectoryEntry:
    """Sharing state for one block, as Python sets."""

    __slots__ = ("owner", "sharers", "was_held")

    def __init__(self) -> None:
        self.owner: int = NO_OWNER
        self.sharers: set = set()
        self.was_held: set = set()

    def check(self) -> None:
        if self.owner != NO_OWNER:
            if self.sharers != {self.owner}:
                raise ProtocolError(
                    f"exclusive owner {self.owner} but sharers={self.sharers}"
                )
            if self.owner not in self.was_held:
                raise ProtocolError("owner must be in was_held")


class LegacyFetchOutcome:
    """Result of a directory request, as an allocated object."""

    __slots__ = ("refetch", "prev_owner", "invalidated")

    def __init__(
        self,
        refetch: bool,
        prev_owner: int = NO_OWNER,
        invalidated: Tuple[int, ...] = (),
    ) -> None:
        self.refetch = refetch
        self.prev_owner = prev_owner
        self.invalidated = invalidated


class LegacyDirectory:
    """The set-based directory: one entry object per requested block."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, LegacyDirectoryEntry] = {}

    def reset(self) -> None:
        self._entries.clear()

    def entry(self, block: int) -> LegacyDirectoryEntry:
        e = self._entries.get(block)
        if e is None:
            e = LegacyDirectoryEntry()
            self._entries[block] = e
        return e

    def peek(self, block: int) -> Optional[LegacyDirectoryEntry]:
        return self._entries.get(block)

    def __len__(self) -> int:
        return len(self._entries)

    def read_request(self, block: int, node: int) -> LegacyFetchOutcome:
        e = self.entry(block)
        refetch = node in e.was_held and node not in (e.owner,)
        prev_owner = NO_OWNER
        if e.owner != NO_OWNER and e.owner != node:
            prev_owner = e.owner
            e.owner = NO_OWNER
        elif e.owner == node:
            refetch = node in e.was_held
            e.owner = NO_OWNER
        e.sharers.add(node)
        e.was_held.add(node)
        return LegacyFetchOutcome(refetch, prev_owner=prev_owner)

    def write_request(
        self, block: int, node: int, upgrade: bool = False
    ) -> LegacyFetchOutcome:
        e = self.entry(block)
        refetch = node in e.was_held and e.owner != node and not upgrade
        prev_owner = e.owner if e.owner not in (NO_OWNER, node) else NO_OWNER
        # Ascending node order, as the bitmask directory reports them
        # (a set of 9 or more nodes does not iterate in node order).
        invalidated = tuple(sorted(n for n in e.sharers if n != node))
        e.sharers = {node}
        e.was_held = {node}
        e.owner = node
        return LegacyFetchOutcome(refetch, prev_owner=prev_owner, invalidated=invalidated)

    def home_read_access(self, block: int, home: int) -> LegacyFetchOutcome:
        e = self._entries.get(block)
        if e is None or e.owner in (NO_OWNER, home):
            return LegacyFetchOutcome(False)
        prev_owner = e.owner
        e.owner = NO_OWNER
        return LegacyFetchOutcome(False, prev_owner=prev_owner)

    def home_write_access(self, block: int, home: int) -> LegacyFetchOutcome:
        e = self._entries.get(block)
        if e is None:
            return LegacyFetchOutcome(False)
        prev_owner = e.owner if e.owner not in (NO_OWNER, home) else NO_OWNER
        invalidated = tuple(sorted(n for n in e.sharers if n != home))
        e.owner = NO_OWNER
        e.sharers = set()
        e.was_held = set()
        return LegacyFetchOutcome(False, prev_owner=prev_owner, invalidated=invalidated)

    def writeback(self, block: int, node: int) -> None:
        e = self._entries.get(block)
        if e is None:
            raise ProtocolError(f"writeback of untracked block {block}")
        if e.owner == node:
            e.owner = NO_OWNER

    def flush(self, block: int, node: int) -> None:
        e = self._entries.get(block)
        if e is None:
            return
        if e.owner == node:
            e.owner = NO_OWNER
        e.sharers.discard(node)
        e.was_held.discard(node)

    def owner_of(self, block: int) -> int:
        e = self._entries.get(block)
        return e.owner if e is not None else NO_OWNER

    def sharers_of(self, block: int) -> frozenset:
        e = self._entries.get(block)
        return frozenset(e.sharers) if e is not None else frozenset()

    def was_held_by(self, block: int, node: int) -> bool:
        e = self._entries.get(block)
        return e is not None and node in e.was_held


# ----------------------------------------------------------------------
# CC-NUMA block cache (dict of line objects)
# ----------------------------------------------------------------------


class LegacyBlockCacheLine:
    __slots__ = ("block", "writable", "dirty")

    def __init__(self, block: int, writable: bool, dirty: bool) -> None:
        self.block = block
        self.writable = writable
        self.dirty = dirty


class LegacyBlockCache:
    """Direct-mapped write-back cache as a dict of mutable line objects."""

    __slots__ = ("num_blocks", "_mask", "_lines", "_infinite")

    def __init__(self, num_blocks: int, infinite: bool = False) -> None:
        if num_blocks < 0:
            raise ConfigurationError("num_blocks must be >= 0")
        if not infinite and num_blocks and (num_blocks & (num_blocks - 1)) != 0:
            raise ConfigurationError(
                f"block cache size must be a power of two blocks, got {num_blocks}"
            )
        self.num_blocks = num_blocks
        self._mask = num_blocks - 1 if num_blocks else 0
        self._infinite = infinite
        self._lines: Dict[int, LegacyBlockCacheLine] = {}

    @classmethod
    def infinite_cache(cls) -> "LegacyBlockCache":
        return cls(num_blocks=1, infinite=True)

    @property
    def is_infinite(self) -> bool:
        return self._infinite

    def reset(self) -> None:
        self._lines.clear()

    def _index(self, block: int) -> int:
        return block if self._infinite else block & self._mask

    def lookup(self, block: int) -> Optional[LegacyBlockCacheLine]:
        if self.num_blocks == 0 and not self._infinite:
            return None
        line = self._lines.get(self._index(block))
        if line is not None and line.block == block:
            return line
        return None

    def victim_for(self, block: int) -> Optional[LegacyBlockCacheLine]:
        if self._infinite:
            return None
        if self.num_blocks == 0:
            return None
        line = self._lines.get(self._index(block))
        if line is None or line.block == block:
            return None
        return line

    def insert(self, block: int, writable: bool) -> Optional[LegacyBlockCacheLine]:
        if self.num_blocks == 0 and not self._infinite:
            return None
        victim = self.victim_for(block)
        self._lines[self._index(block)] = LegacyBlockCacheLine(
            block, writable, dirty=False
        )
        return victim

    def invalidate(self, block: int) -> Optional[LegacyBlockCacheLine]:
        idx = self._index(block)
        line = self._lines.get(idx)
        if line is None or line.block != block:
            return None
        del self._lines[idx]
        return line

    def mark_dirty(self, block: int) -> None:
        line = self.lookup(block)
        if line is not None:
            line.dirty = True
            line.writable = True

    def resident_blocks(self) -> List[int]:
        return [line.block for line in self._lines.values()]

    def lines_of_page(self, page_blocks) -> List[LegacyBlockCacheLine]:
        hits = []
        for b in page_blocks:
            line = self.lookup(b)
            if line is not None:
                hits.append(line)
        return hits

    def __len__(self) -> int:
        return len(self._lines)


# ----------------------------------------------------------------------
# S-COMA page cache (insertion-ordered dict as the recency queue)
# ----------------------------------------------------------------------

LEGACY_POLICIES = ("lrm", "lru", "fifo")


class LegacyPageCache:
    """Replacement order kept as dict insertion order, front = victim."""

    __slots__ = ("capacity", "policy", "_frames")

    def __init__(self, capacity: int, policy: str = "lrm") -> None:
        if capacity < 0:
            raise ConfigurationError("page cache capacity must be >= 0")
        if policy not in LEGACY_POLICIES:
            raise ConfigurationError(
                f"unknown replacement policy {policy!r}; "
                f"expected one of {LEGACY_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self._frames: Dict[int, None] = {}

    def reset(self) -> None:
        self._frames.clear()

    @property
    def reorders_on_hit(self) -> bool:
        return self.policy == "lru"

    def __contains__(self, page: int) -> bool:
        return page in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def has_free_frame(self) -> bool:
        return len(self._frames) < self.capacity

    def resident_pages(self) -> List[int]:
        return list(self._frames)

    def victim(self) -> Optional[int]:
        if self.has_free_frame or not self._frames:
            return None
        return next(iter(self._frames))

    def insert(self, page: int) -> None:
        if page in self._frames:
            raise ProtocolError(f"page {page} already resident in page cache")
        if not self.has_free_frame:
            raise ProtocolError("page cache full; evict a victim first")
        self._frames[page] = None

    def evict(self, page: int) -> None:
        if page not in self._frames:
            raise ProtocolError(f"page {page} not resident; cannot evict")
        del self._frames[page]

    def touch_miss(self, page: int) -> None:
        if page not in self._frames:
            raise ProtocolError(f"page {page} not resident; cannot touch")
        if self.policy != "fifo":
            del self._frames[page]
            self._frames[page] = None

    def touch_hit(self, page: int) -> None:
        if self.policy == "lru" and page in self._frames:
            del self._frames[page]
            self._frames[page] = None
