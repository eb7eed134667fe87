"""Virtual-memory machinery: the per-node page tables.

The mapping decision (CC-NUMA vs. S-COMA vs. unmapped) is per node,
per page.  The S-COMA RAD's LPA<->GPA translation table is the page
cache's own frame map (:class:`repro.caches.page_cache.PageCache`).
"""
