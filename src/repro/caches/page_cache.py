"""S-COMA page cache with pluggable replacement policy.

A region of the node's main memory holds remote pages at page
granularity.  The cache is fully associative — standard virtual-address
translation locates frames — so the only policy decision is victim
selection.  Three policies are provided:

``lrm`` (paper default)
    **Least Recently Missed**: the frame list is reordered only on
    *remote misses* to a page, not on every reference (Section 4).
    Cheap to approximate in hardware with per-page miss counters the OS
    samples at fault time.
``lru``
    Classical least-recently-*used*: reordered on hits as well.  More
    expensive to build; included as the ablation target the paper
    compares LRM against ("similar to classical LRU, but ...").
``fifo``
    Never reordered; evict the oldest mapping.  The baseline that shows
    what recency tracking buys.

State layout
------------

Recency is an **intrusive doubly-linked list threaded through
preallocated arrays**: ``_page[f]`` is the page resident in frame ``f``
and ``_next[f]`` / ``_prev[f]`` link the frames in replacement order.
Index ``capacity`` is a sentinel anchor — ``_next[anchor]`` is the
victim candidate (least recently missed) and ``_prev[anchor]`` the
safest page.  A touch is four array stores (unlink + relink at the
tail), so LRM/LRU/FIFO maintenance and O(1) victim picks happen with no
dict churn and no allocation.  The order is observationally identical
to the insertion-ordered-dict implementation this replaced (frozen as
:class:`repro.sim.legacy.LegacyPageCache`): front of the list is the
victim, a touch moves the page to the back.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, ProtocolError

POLICIES = ("lrm", "lru", "fifo")


class PageCache:
    """Fixed number of page frames with a replacement policy.

    ``capacity`` of 0 models a machine with no page cache (pure
    CC-NUMA nodes still instantiate one so the engine code is uniform).

    The frame map (``_frame_of``: page -> frame, ``_page``: frame ->
    page) is the RAD's S-COMA translation table of Section 2.2, the
    SRAM that turns a frame's local physical address back into the
    page's global one: :meth:`insert` installs an entry and
    :meth:`evict` removes it.
    """

    __slots__ = ("capacity", "policy", "_frame_of", "_page", "_next", "_prev", "_free")

    def __init__(self, capacity: int, policy: str = "lrm") -> None:
        if capacity < 0:
            raise ConfigurationError("page cache capacity must be >= 0")
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown replacement policy {policy!r}; expected one of {POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        # page -> frame index
        self._frame_of: Dict[int, int] = {}
        # frame -> resident page; frame `capacity` is the list anchor.
        self._page: array = array("q", [-1]) * (capacity + 1)
        anchor = capacity
        self._next: array = array("q", [anchor]) * (capacity + 1)
        self._prev: array = array("q", [anchor]) * (capacity + 1)
        # free frames, popped LIFO (frame identity is invisible to
        # replacement behaviour — only list order matters)
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    @property
    def reorders_on_hit(self) -> bool:
        """True when the engine must report page-cache *hits* too."""
        return self.policy == "lru"

    def __contains__(self, page: int) -> bool:
        return page in self._frame_of

    def __len__(self) -> int:
        return len(self._frame_of)

    @property
    def has_free_frame(self) -> bool:
        return len(self._frame_of) < self.capacity

    # -- list plumbing -------------------------------------------------

    def _unlink(self, frame: int) -> None:
        nxt, prv = self._next, self._prev
        n, p = nxt[frame], prv[frame]
        nxt[p] = n
        prv[n] = p

    def _link_last(self, frame: int) -> None:
        """Insert ``frame`` at the safest (most-recent) position."""
        nxt, prv = self._next, self._prev
        anchor = self.capacity
        tail = prv[anchor]
        nxt[tail] = frame
        prv[frame] = tail
        nxt[frame] = anchor
        prv[anchor] = frame

    # -- public API ----------------------------------------------------

    def resident_pages(self) -> List[int]:
        """Pages in replacement order (victim candidate first)."""
        pages = []
        anchor = self.capacity
        f = self._next[anchor]
        while f != anchor:
            pages.append(self._page[f])
            f = self._next[f]
        return pages

    def victim(self) -> Optional[int]:
        """The replacement victim, or None when a frame is free."""
        if self.has_free_frame or not self._frame_of:
            return None
        return self._page[self._next[self.capacity]]

    def insert(self, page: int) -> None:
        """Map ``page`` into a free frame (most-recent position).

        The caller must have created room first; inserting past capacity
        is a protocol bug.
        """
        if page in self._frame_of:
            raise ProtocolError(f"page {page} already resident in page cache")
        if not self.has_free_frame:
            raise ProtocolError("page cache full; evict a victim first")
        frame = self._free.pop()
        self._frame_of[page] = frame
        self._page[frame] = page
        self._link_last(frame)

    def evict(self, page: int) -> None:
        frame = self._frame_of.pop(page, None)
        if frame is None:
            raise ProtocolError(f"page {page} not resident; cannot evict")
        self._unlink(frame)
        self._page[frame] = -1
        self._free.append(frame)

    def touch_miss(self, page: int) -> None:
        """Record a remote miss to ``page``.

        Under LRM and LRU this moves the page to the safest position;
        under FIFO it is a no-op (insertion order rules).
        """
        frame = self._frame_of.get(page)
        if frame is None:
            raise ProtocolError(f"page {page} not resident; cannot touch")
        if self.policy != "fifo":
            self._unlink(frame)
            self._link_last(frame)

    def touch_hit(self, page: int) -> None:
        """Record a local hit on ``page`` (LRU reorders; others ignore).

        The engine only calls this when :attr:`reorders_on_hit` is set,
        keeping the hot path free of list churn for the default policy.
        """
        if self.policy == "lru":
            frame = self._frame_of.get(page)
            if frame is not None:
                self._unlink(frame)
                self._link_last(frame)
