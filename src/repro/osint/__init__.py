"""Operating-system intervention layer.

Everything the paper's OS does on behalf of the protocols lives here:
first-touch page placement, page-fault handling, S-COMA page
allocation/replacement, TLB shootdowns, and R-NUMA's refetch counter
and CC->S-COMA page relocation.  Each service mutates machine state
and returns the cycle cost the faulting processor pays.
"""
