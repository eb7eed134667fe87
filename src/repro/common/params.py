"""Machine, cache, and cost parameters (the paper's Table 2 and Section 4).

All costs are in processor cycles at 400 MHz, exactly as the paper reports
them:

======================  =====================
block operations        cost (cycles)
======================  =====================
SRAM access             8
DRAM access             56
local cache fill        69
remote fetch            376
======================  =====================

======================  =====================
page operations         cost (cycles)
======================  =====================
soft trap               2000   (5 us)
TLB shootdown           200    (0.5 us, hardware)
allocation/replacement  3000 ~ 11500
or relocation           (varies with blocks flushed)
======================  =====================

The SOFT variants (Figure 9) double the page-fault time to 10 us (4000
cycles) and use 5 us (2000 cycle) software TLB shootdowns via
inter-processor interrupts, making per-page operations roughly three times
more expensive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.caches.page_cache import POLICIES
from repro.coherence.directory import OVERFLOW_POLICIES, REPRESENTATIONS
from repro.common.addressing import AddressSpace
from repro.common.errors import ConfigurationError
from repro.interconnect.topology import TOPOLOGIES

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class CostParams:
    """Latency/occupancy constants, in processor cycles.

    The per-page operation cost is decomposed as::

        page_op = soft_trap + tlb_shootdown + page_setup
                  + flush_per_block * blocks_flushed

    With the base constants below an allocation that flushes nothing costs
    3000 cycles and one that flushes a fully dirty 64-block page costs
    ~11500 cycles — the paper's 3000~11500 range.
    """

    sram_access: int = 8
    dram_access: int = 56
    local_fill: int = 69
    remote_fetch: int = 376
    network_latency: int = 100
    # Per-hop fabric costs, charged only on non-uniform topologies
    # (the paper's uniform point-to-point fabric has no internal links,
    # so these never touch a paper reproduction): each link on a
    # message's route adds link_latency cycles of wire time and holds
    # the link busy for link_occupancy cycles.  Defaults are a
    # plausible pipelined-router point — a ~5-hop route roughly
    # doubles the 100-cycle base wire latency.
    link_latency: int = 20
    link_occupancy: int = 8

    soft_trap: int = 2000
    tlb_shootdown: int = 200
    page_setup: int = 800
    flush_per_block: int = 133

    # Occupancy (resource busy time) for contention modeling.
    bus_occupancy: int = 20
    ni_occupancy: int = 24
    rad_occupancy: int = 30
    # Extra home-RAD occupancy per additional sharer invalidated on a
    # write-ownership grant.
    invalidate_per_sharer: int = 12
    barrier_cost: int = 400

    def __post_init__(self) -> None:
        # The engines add these to clocks and resource free times with
        # no further check.
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigurationError(f"{f.name} must be non-negative")

    def page_op_cost(self, blocks_flushed: int) -> int:
        """Cost of a page allocation, replacement, or relocation.

        Parameters
        ----------
        blocks_flushed:
            Number of (dirty or cached) blocks that must be flushed back
            to the home node as part of the operation.
        """
        if blocks_flushed < 0:
            raise ConfigurationError("blocks_flushed must be non-negative")
        return (
            self.soft_trap
            + self.tlb_shootdown
            + self.page_setup
            + self.flush_per_block * blocks_flushed
        )

    def softened(self) -> "CostParams":
        """The Figure 9 'SOFT' variant of these costs.

        10 us page faults (4000 cycles) and 5 us software TLB shootdowns
        via inter-processor interrupts (2000 cycles).
        """
        return replace(self, soft_trap=4000, tlb_shootdown=2000)


BASE_COSTS = CostParams()
SOFT_COSTS = BASE_COSTS.softened()


@dataclass(frozen=True)
class CacheParams:
    """Per-node cache sizing.

    The paper's base system: 8-KB direct-mapped processor caches, a 32-KB
    block cache for CC-NUMA, a 320-KB page cache for S-COMA, and for
    R-NUMA a tiny 128-byte block cache plus the same 320-KB page cache.
    """

    l1_size: int = 8 * KB
    block_cache_size: int = 32 * KB
    page_cache_size: int = 320 * KB
    #: page-cache replacement policy: "lrm" (paper), "lru", or "fifo"
    page_replacement: str = "lrm"

    def __post_init__(self) -> None:
        if self.l1_size <= 0:
            raise ConfigurationError("l1_size must be positive")
        if self.block_cache_size < 0:
            raise ConfigurationError("block_cache_size must be >= 0")
        if self.page_cache_size < 0:
            raise ConfigurationError("page_cache_size must be >= 0")
        if self.page_replacement not in POLICIES:
            raise ConfigurationError(
                f"unknown page_replacement {self.page_replacement!r}; "
                f"expected one of {POLICIES}"
            )

    def l1_blocks(self, space: AddressSpace) -> int:
        return max(1, self.l1_size // space.block_size)

    def block_cache_blocks(self, space: AddressSpace) -> int:
        return max(0, self.block_cache_size // space.block_size)

    def page_cache_frames(self, space: AddressSpace) -> int:
        return max(0, self.page_cache_size // space.page_size)


@dataclass(frozen=True)
class DirectoryParams:
    """Sharer-set representation of the inter-node directory.

    The paper's machines are small enough that an exact full-map bitmask
    per block is free; at 256-1024 nodes the classic scalable encodings
    from the directory literature trade precision for state:

    - ``"fullmap"`` — one exact bit per node (the default, and
      bit-identical to the frozen oracle in :mod:`repro.sim.legacy`).
    - ``"limited"`` — Dir_i-style: up to ``pointers`` exact sharer
      entries per block.  On pointer overflow the ``overflow`` policy
      decides: ``"broadcast"`` saturates the entry so the next write
      invalidates every node (Dir_i_B), while ``"evict"``
      deterministically invalidates the lowest-numbered existing
      sharer to make room (Dir_i_NB-style pointer replacement).
    - ``"coarse"`` — coarse-vector: each sharer bit covers
      ``region_size`` consecutive nodes, so invalidations fan out to
      whole regions (Dir_i_CV_r's overflowed regime).

    Inexact representations obey a conservative equivalence contract
    (pinned by ``tests/property/test_directory_repr_differential.py``):
    they behave bit-identically to full-map while the sharer count
    stays within capacity (``pointers >= nodes``, or ``region_size ==
    1``), and may only ever *over*-invalidate — never under-invalidate
    — beyond it.
    """

    representation: str = "fullmap"
    #: hardware pointer count for ``"limited"``.
    pointers: int = 4
    #: overflow policy for ``"limited"``: "broadcast" or "evict".
    overflow: str = "broadcast"
    #: nodes per sharer bit for ``"coarse"``.
    region_size: int = 4

    def __post_init__(self) -> None:
        if self.representation not in REPRESENTATIONS:
            raise ConfigurationError(
                f"unknown directory representation {self.representation!r}; "
                f"expected one of {REPRESENTATIONS}"
            )
        if self.overflow not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown directory overflow policy {self.overflow!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        if self.pointers < 1:
            raise ConfigurationError("directory pointers must be positive")
        if self.region_size < 1:
            raise ConfigurationError("directory region_size must be positive")


@dataclass(frozen=True)
class MachineParams:
    """Cluster shape: number of SMP nodes and processors per node."""

    nodes: int = 8
    cpus_per_node: int = 4

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ConfigurationError("nodes must be positive")
        if self.cpus_per_node <= 0:
            raise ConfigurationError("cpus_per_node must be positive")

    @property
    def total_cpus(self) -> int:
        return self.nodes * self.cpus_per_node

    def node_of_cpu(self, cpu: int) -> int:
        if not 0 <= cpu < self.total_cpus:
            raise ConfigurationError(f"cpu id {cpu} out of range")
        return cpu // self.cpus_per_node


@dataclass(frozen=True)
class ObsParams:
    """Observability settings: event tracing and metrics sampling.

    Observability is *not* part of a system: enabling it never changes
    simulation results (the hooks are observational-only, pinned by
    ``tests/property/test_obs_differential.py``), so it is not a
    :class:`SystemConfig` field but an argument of
    :func:`repro.sim.engine.simulate` (``obs=``), the one place it
    enters a run.  Without it, or with both paths ``None`` (the
    default), the instrumentation layer is structurally absent: no
    hook is installed, no obs module is imported, and the engines run
    the exact same code they run without this class existing — a
    contract ``tests/property/test_obs_differential.py`` gates by
    counting the bytecode ``simulate()`` adds to a direct engine run.

    ``trace_path``
        Destination for a Chrome-trace-event JSON file (loadable in
        Perfetto / ``chrome://tracing``; timestamps are simulated
        cycles).  Tracks are one process per node, one thread per CPU.
    ``trace_categories``
        Which event categories to emit (subset of
        :data:`TRACE_CATEGORIES`): ``"miss"`` — one complete event per
        L1 miss (dense); ``"coherence"`` — inter-node directory
        transactions and invalidation fan-out; ``"page"`` — faults,
        allocations, replacements, relocations; ``"counter"`` —
        competitive-counter refetch ticks and threshold crossings.
    ``metrics_path``
        Destination for a JSONL counter time-series: one ``meta`` line,
        periodic ``sample`` lines, one ``final`` line (schema:
        ``repro/obs/schemas/metrics.schema.json``).
    ``metrics_interval``
        Simulated-cycle sampling period.  Samples are taken at miss
        boundaries (the only points where the sampled counters change),
        so an interval is honored at the first miss at-or-after its
        deadline.
    """

    TRACE_CATEGORIES = ("miss", "coherence", "page", "counter")

    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    trace_categories: Tuple[str, ...] = TRACE_CATEGORIES
    metrics_interval: int = 100_000

    def __post_init__(self) -> None:
        # Tolerate (and normalize) a list from keyword construction.
        if not isinstance(self.trace_categories, tuple):
            object.__setattr__(
                self, "trace_categories", tuple(self.trace_categories)
            )
        for cat in self.trace_categories:
            if cat not in self.TRACE_CATEGORIES:
                raise ConfigurationError(
                    f"unknown trace category {cat!r}; "
                    f"expected a subset of {self.TRACE_CATEGORIES}"
                )
        if self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be positive")

    @property
    def enabled(self) -> bool:
        """Whether any instrumentation output is requested."""
        return self.trace_path is not None or self.metrics_path is not None


@dataclass(frozen=True)
class RetryPolicy:
    """Failure policy for the experiment executor's job fan-out.

    Like :class:`ObsParams`, these knobs are *execution* policy, not
    system identity: retrying, timing out, or backing off never changes
    what a simulation computes (backends are deterministic), only
    whether and when it is re-attempted.  They therefore live outside
    :class:`SystemConfig` entirely — no run key, store key, or stored
    payload ever includes them, so a sweep run with ``--retries 3`` and
    one run with none share the same store entries.

    ``retries``
        Extra attempts per job after the first, consumed by crashes and
        timeouts.
    ``job_timeout``
        Per-job wall-clock deadline in seconds.  A job past it is
        declared hung: its worker pool is recycled (the only way to
        reclaim a stuck worker) and the job is retried or recorded as
        failed.  Setting it forces the pool path even with one worker,
        since an in-process job cannot be preempted.
    ``backoff``
        Base for exponential backoff between a job's attempts, with
        deterministic per-(job, attempt) jitter derived from the run
        key — no global random state (see
        :func:`repro.experiments.executor.backoff_delay`).
    ``fail_fast``
        Abort the sweep on the first *permanently* failed job (its
        retry budget spent) instead of recording it and finishing the
        rest (the default, ``--keep-going``).
    """

    retries: int = 0
    job_timeout: Optional[float] = None
    backoff: float = 0.5
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be non-negative")
        if self.job_timeout is not None and not 0 < self.job_timeout < math.inf:
            raise ConfigurationError("job_timeout must be a finite number > 0")
        if not 0 <= self.backoff < math.inf:
            raise ConfigurationError("backoff must be a finite number >= 0")

    @property
    def max_attempts(self) -> int:
        """Total attempts a crashing/hanging job may consume."""
        return self.retries + 1


@dataclass(frozen=True)
class SystemConfig:
    """A complete system description handed to the simulator.

    ``protocol`` selects the remote-caching strategy:

    - ``"ccnuma"``  — block cache only (Section 2.1)
    - ``"scoma"``   — page cache only (Section 2.2)
    - ``"rnuma"``   — reactive hybrid (Section 3)
    - ``"ideal"``   — CC-NUMA with an infinite block cache, the
      normalization baseline of every figure in the paper.

    ``topology`` selects the inter-node fabric shape (see
    :mod:`repro.interconnect.topology`).  ``"uniform"`` — the paper's
    constant-latency point-to-point network — is the default and is
    bit-identical to the pre-topology model; ``"ring"``, ``"mesh"``,
    ``"torus"``, and ``"fattree"`` add hop-dependent latency and
    per-link contention governed by ``costs.link_latency`` /
    ``costs.link_occupancy``.

    A config describes the simulated system and nothing else: the
    engine backend that simulates it and the observability settings
    are arguments of :func:`repro.sim.engine.simulate`, since neither
    changes what a run computes.
    """

    protocol: str = "rnuma"
    machine: MachineParams = field(default_factory=MachineParams)
    caches: CacheParams = field(default_factory=CacheParams)
    costs: CostParams = field(default_factory=CostParams)
    space: AddressSpace = field(default_factory=AddressSpace)
    topology: str = "uniform"
    #: inter-node directory sharer-set representation; the default
    #: exact full-map is bit-identical to the pre-directory-knob model.
    directory: DirectoryParams = field(default_factory=DirectoryParams)
    relocation_threshold: int = 64
    #: R-NUMA relocation implementation (Section 3.2's two designs):
    #: "local" moves the blocks the node already holds straight into
    #: the page-cache frame, so its later accesses to them are local
    #: fills; "flush" sends them home, so each is fetched again on
    #: demand.  Both charge the same page operation, page_op_cost of
    #: the held blocks plus the victim page's flushed ones, so
    #: C_relocate = C_allocate in either mode (EQ 3's bound of 3, not
    #: the aggressive design's 2).
    relocation_mode: str = "local"

    _PROTOCOLS = ("ccnuma", "scoma", "rnuma", "ideal")
    _RELOCATION_MODES = ("local", "flush")

    def __post_init__(self) -> None:
        if self.protocol not in self._PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; "
                f"expected one of {self._PROTOCOLS}"
            )
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {tuple(TOPOLOGIES)}"
            )
        if self.relocation_threshold <= 0:
            raise ConfigurationError("relocation_threshold must be positive")
        if self.relocation_mode not in self._RELOCATION_MODES:
            raise ConfigurationError(
                f"unknown relocation_mode {self.relocation_mode!r}; "
                f"expected one of {self._RELOCATION_MODES}"
            )


# The paper's four systems.  ``python -m repro run`` and every figure,
# table and extension build theirs with these, so a paper system is
# defined here and nowhere else.
def base_ccnuma_config(block_cache: int = 32 * KB) -> SystemConfig:
    """CC-NUMA with a ``block_cache``-byte block cache (paper base: 32 KB)."""
    return SystemConfig(
        protocol="ccnuma", caches=CacheParams(block_cache_size=block_cache)
    )


def base_scoma_config(
    page_cache: int = 320 * KB, costs: CostParams = BASE_COSTS
) -> SystemConfig:
    """S-COMA with a ``page_cache``-byte page cache (paper base: 320 KB)."""
    return SystemConfig(
        protocol="scoma", caches=CacheParams(page_cache_size=page_cache), costs=costs
    )


def base_rnuma_config(
    threshold: int = 64,
    block_cache: int = 128,
    page_cache: int = 320 * KB,
    costs: CostParams = BASE_COSTS,
) -> SystemConfig:
    """R-NUMA (paper base: 128-B block cache, 320-KB page cache, T=64)."""
    return SystemConfig(
        protocol="rnuma",
        caches=CacheParams(block_cache_size=block_cache, page_cache_size=page_cache),
        costs=costs,
        relocation_threshold=threshold,
    )


def ideal_config() -> SystemConfig:
    """CC-NUMA with an effectively infinite block cache."""
    return SystemConfig(protocol="ideal")


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """A JSON-safe plain-dict form of a :class:`SystemConfig`."""
    return asdict(config)


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output.

    Validation reruns in each dataclass ``__post_init__``, so a tampered
    payload raises :class:`ConfigurationError` rather than producing a
    half-valid config.
    """
    return SystemConfig(
        protocol=data["protocol"],
        machine=MachineParams(**data["machine"]),
        caches=CacheParams(**data["caches"]),
        costs=CostParams(**data["costs"]),
        space=AddressSpace(**data["space"]),
        topology=data["topology"],
        directory=DirectoryParams(**data["directory"]),
        relocation_threshold=data["relocation_threshold"],
        relocation_mode=data["relocation_mode"],
    )
