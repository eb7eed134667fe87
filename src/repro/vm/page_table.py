"""Per-node page table.

Every node keeps its own page table (the paper runs one OS image but
separate per-node page tables, so each node makes independent allocation
decisions).  For the simulator, a page on a given node is in one of four
mapping states:

============= ======================================================
MAP_UNMAPPED  never touched / unmapped; next touch takes a page fault
MAP_LOCAL     the page's home is this node (plain local memory)
MAP_CC        mapped to the remote global physical address (CC-NUMA)
MAP_SCOMA     mapped to a local page-cache frame (S-COMA)
============= ======================================================
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ProtocolError

MAP_UNMAPPED = 0
MAP_LOCAL = 1
MAP_CC = 2
MAP_SCOMA = 3

_NAMES = {
    MAP_UNMAPPED: "unmapped",
    MAP_LOCAL: "local",
    MAP_CC: "cc-numa",
    MAP_SCOMA: "s-coma",
}


def mapping_name(state: int) -> str:
    try:
        return _NAMES[state]
    except KeyError:
        raise ValueError(f"not a mapping state: {state!r}") from None


class PageTable:
    """Mapping state per page for one node.

    ``state`` (page -> mapping constant, absent = MAP_UNMAPPED) is a
    public column on purpose: the simulation engine probes it directly
    on its miss path — one dict ``get`` instead of a method call — and
    no method replaces the dict, so the engine may cache a reference to
    it for the length of a run.
    """

    __slots__ = ("state",)

    def __init__(self) -> None:
        self.state: Dict[int, int] = {}

    def mapping_of(self, page: int) -> int:
        return self.state.get(page, MAP_UNMAPPED)

    def map_local(self, page: int) -> None:
        self._set(page, MAP_LOCAL)

    def map_cc(self, page: int) -> None:
        self._set(page, MAP_CC)

    def map_scoma(self, page: int) -> None:
        self._set(page, MAP_SCOMA)

    def unmap(self, page: int) -> None:
        if page not in self.state:
            raise ProtocolError(f"page {page} is not mapped")
        del self.state[page]

    def _set(self, page: int, state: int) -> None:
        current = self.state.get(page, MAP_UNMAPPED)
        if current != MAP_UNMAPPED and current != state:
            raise ProtocolError(
                f"page {page} already mapped {mapping_name(current)}; "
                f"unmap before remapping {mapping_name(state)}"
            )
        self.state[page] = state

    def pages_mapped(self, state: int) -> List[int]:
        """All pages currently in mapping state ``state``."""
        return [p for p, s in self.state.items() if s == state]

    def __len__(self) -> int:
        return len(self.state)
