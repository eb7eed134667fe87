"""S-COMA fine-grain access-control tags.

The S-COMA RAD keeps two bits per block of every page-cache frame so it
can tell, on each bus transaction, whether local memory may satisfy the
fill or the RAD must inhibit memory and fetch remotely (paper,
Section 2.2).  The three meaningful encodings:

=============== ==================================================
BLOCK_INVALID   block not present locally; RAD must fetch
BLOCK_READONLY  present, reads may be satisfied locally
BLOCK_WRITABLE  present with write permission (node has ownership)
=============== ==================================================

No dirty bit is kept: a page replacement flushes every valid block
home and charges each one, whether it was written or not.

Tags for one page live in a flat ``bytearray`` of ``blocks_per_page``
entries, so the simulator's tag probe is a dict lookup for the page
followed by a C-speed byte load — no inner per-offset dict.  A zero
byte *is* BLOCK_INVALID and a fresh frame is all-zero, which makes
mapping a page a single allocation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ProtocolError

BLOCK_INVALID = 0
BLOCK_READONLY = 1
BLOCK_WRITABLE = 2

_VALID_STATES = (BLOCK_INVALID, BLOCK_READONLY, BLOCK_WRITABLE)


class FineGrainTags:
    """Per-page block tags for every S-mapped page on one node.

    Tags exist only for pages currently mapped in the page cache; mapping
    a page resets every block to BLOCK_INVALID (a newly allocated frame
    holds no data until blocks are fetched or relocated into it).
    Offsets must lie in ``[0, blocks_per_page)`` — the tag store is a
    fixed-width hardware structure, not a sparse map.
    """

    __slots__ = ("blocks_per_page", "rows")

    def __init__(self, blocks_per_page: int) -> None:
        if blocks_per_page <= 0:
            raise ProtocolError("blocks_per_page must be positive")
        self.blocks_per_page = blocks_per_page
        # page -> per-offset tag bytes; a zero byte == BLOCK_INVALID.
        # ``rows`` is public on purpose: the engine probes it directly
        # on the S-COMA miss path (dict get + byte load, no method
        # call), and the dict keeps its identity for the lifetime of
        # the store (reset() clears it in place).
        self.rows: Dict[int, bytearray] = {}

    def reset(self) -> None:
        """Drop every page's tags (fresh-machine state for a re-run)."""
        self.rows.clear()

    def map_page(self, page: int) -> None:
        """Create all-invalid tags for a freshly mapped page."""
        if page in self.rows:
            raise ProtocolError(f"page {page} already has fine-grain tags")
        self.rows[page] = bytearray(self.blocks_per_page)

    def unmap_page(self, page: int) -> None:
        """Drop tags for an unmapped page."""
        self.rows.pop(page, None)

    def is_mapped(self, page: int) -> bool:
        return page in self.rows

    def get(self, page: int, offset: int) -> int:
        """Tag state of block ``offset`` within ``page``."""
        if offset < 0:
            raise IndexError(f"negative block offset {offset}")
        tags = self.rows.get(page)
        if tags is None:
            return BLOCK_INVALID
        return tags[offset]

    def set(self, page: int, offset: int, state: int) -> None:
        if state not in _VALID_STATES:
            raise ProtocolError(f"not a fine-grain tag state: {state}")
        if offset < 0:
            raise IndexError(f"negative block offset {offset}")
        tags = self.rows.get(page)
        if tags is None:
            raise ProtocolError(f"page {page} is not S-mapped on this node")
        tags[offset] = state

    def valid_offsets(self, page: int) -> List[int]:
        """Offsets of all present (readonly or writable) blocks."""
        tags = self.rows.get(page)
        if not tags:
            return []
        return [off for off, state in enumerate(tags) if state]

    def valid_count(self, page: int) -> int:
        tags = self.rows.get(page)
        if not tags:
            return 0
        return self.blocks_per_page - tags.count(0)
