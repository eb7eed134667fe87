"""Operating-system intervention layer.

Everything the paper's OS does on behalf of the protocols lives here:
first-touch page placement, page-fault handling, S-COMA page
allocation/replacement, TLB shootdowns, and R-NUMA's refetch counter
and CC->S-COMA page relocation.  Each service mutates machine state
and returns the cycle cost the faulting processor pays.
"""

from repro.osint.placement import first_touch_homes, round_robin_homes
from repro.osint.services import (
    allocate_scoma_page,
    count_refetch,
    map_cc_page,
    relocate_page_to_scoma,
    replace_scoma_page,
)

__all__ = [
    "allocate_scoma_page",
    "count_refetch",
    "first_touch_homes",
    "map_cc_page",
    "relocate_page_to_scoma",
    "replace_scoma_page",
    "round_robin_homes",
]
