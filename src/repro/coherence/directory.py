"""Inter-node directory protocol with refetch detection.

One directory entry exists per cached-anywhere block, conceptually stored
at the block's home node.  The protocol is *non-notifying*: nodes do not
inform the home when they silently drop a clean (read-only) copy.  The
home therefore still lists such nodes as sharers, which is exactly what
makes refetch detection cheap (paper, Section 3.1):

- A request from a node the directory believes already holds the block is
  a **refetch** — the node must have lost it to a capacity or conflict
  replacement.
- For read-write blocks the directory keeps the node's *was-held* status
  across a voluntary write-back (dirty eviction from the block cache), the
  "additional state" the paper describes.
- A coherence invalidation clears was-held, so misses caused by inter-node
  communication are never misclassified as refetches.

State layout
------------

The directory stores no data and, on the miss path, allocates none
either.  Sharing state lives in flat parallel columns indexed by a
per-block slot: ``owner`` is a node id (or :data:`NO_OWNER`) and
``sharers``/``was_held`` are **node bitmasks** — bit *n* set means node
*n* is in the set.  Set union is ``|=``, removal is ``&= ~bit``, and
membership is a shift-and-mask, so a request mutates three machine
integers instead of churning Python ``set`` objects.

Each request returns a single **packed outcome int** instead of an
allocated result object:

====================  ================================================
bit 0                 refetch — the requester previously held this
                      block and lost it to replacement, not coherence
bits 1..31            ``prev_owner + 1`` — node that held the block
                      exclusively before this request (0 means none);
                      it has been downgraded (read) or invalidated
                      (write) and the caller must fix its local caches
bits 32..             bitmask of nodes whose copies this request
                      invalidated (excludes the requester).  Writes
                      carry the displaced sharer set; *reads* carry a
                      non-zero mask only under the limited-pointer
                      "evict" overflow policy, where admitting a new
                      sharer can displace an existing pointer
====================  ================================================

Decode with :func:`out_refetch` / :func:`out_prev_owner` /
:func:`out_inval_mask` (or :func:`out_invalidated` for a tuple on cold
paths); the engine decodes inline with shifts and iterates sharers with
``mask & -mask`` bit tricks.  The frozen set-based transcription this
layout must stay observationally identical to lives in
:mod:`repro.sim.legacy` (see
``tests/property/test_memory_layout_differential.py``).

Scalable representations
------------------------

:class:`Directory` itself is the exact full-map: ``sharer_masks`` holds
one bit per node, always precisely the set of believed sharers.  Two
subclasses implement the classic space-bounded encodings, selected by
:func:`make_directory` from ``SystemConfig.directory``:

:class:`LimitedPointerDirectory`
    Dir_i-style: at most ``pointers`` sharers are tracked exactly.  On
    overflow, policy ``"broadcast"`` saturates the entry (the mask
    becomes all-nodes, so the next write broadcasts invalidations);
    policy ``"evict"`` invalidates the lowest-numbered existing sharer
    to free a pointer, reporting the victim in the read outcome's
    invalidation bits.
:class:`CoarseVectorDirectory`
    Coarse-vector: every sharer bit covers ``region_size`` consecutive
    nodes, so a reader admits its whole region and a write invalidates
    whole regions.

Both keep the **same column layout** (``slots``/``owners``/
``sharer_masks``/``held_masks``) with ``sharer_masks`` holding the
*effective* conservative mask — always a superset of the true sharer
set, never a subset, so over-invalidation is the only possible error
direction.  ``owners`` stays an exact pointer and ``held_masks`` stays
an exact per-node bit in every representation: was-held is the paper's
separate refetch-detection state, orthogonal to how sharers are
encoded.  The engine's read-only probes (owner check, sole-copy check)
therefore work unchanged, and so do the home accesses, which no
representation overrides.  Only the remote read and write requests
differ, which is why the engine routes those through the canonical
methods for non-full-map representations (see
``SimulationEngine._dir_inline``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError, ProtocolError

NO_OWNER = -1

#: sharer-set representations :func:`make_directory` builds.
REPRESENTATIONS = ("fullmap", "limited", "coarse")
#: :class:`LimitedPointerDirectory` overflow policies.
OVERFLOW_POLICIES = ("broadcast", "evict")

#: packed-outcome layout (see module docstring)
OUT_OWNER_SHIFT = 1
OUT_OWNER_MASK = 0x7FFF_FFFF
OUT_INVAL_SHIFT = 32


def out_refetch(out: int) -> bool:
    """Refetch flag of a packed outcome."""
    return bool(out & 1)


def out_prev_owner(out: int) -> int:
    """Previous exclusive owner of a packed outcome (NO_OWNER if none)."""
    return ((out >> OUT_OWNER_SHIFT) & OUT_OWNER_MASK) - 1


def out_inval_mask(out: int) -> int:
    """Bitmask of nodes invalidated by the request."""
    return out >> OUT_INVAL_SHIFT


def bits_of(mask: int) -> List[int]:
    """Node ids set in ``mask``, ascending (cold-path helper)."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return nodes


def out_invalidated(out: int) -> Tuple[int, ...]:
    """Invalidated node ids of a packed outcome, ascending."""
    return tuple(bits_of(out >> OUT_INVAL_SHIFT))


class Directory:
    """All directory entries for the machine, keyed by block number.

    The home-node association of blocks is kept by the placement map, not
    here; the directory only needs entries for blocks that have been
    requested at least once.  ``slots`` maps a block to its index in the
    three parallel columns; entries are never deleted (a flush merely
    clears the node's bits), so slots are stable for a run.
    """

    __slots__ = ("slots", "owners", "sharer_masks", "held_masks")

    #: Sharer admissions past the representation's capacity; the exact
    #: full map has none.  Result reuse reads it as the witness that a
    #: limited-pointer run behaved as the full map.
    overflows = 0

    def __init__(self) -> None:
        # Public columns on purpose (same contract as L1Cache.block_at):
        # the engine probes owner/sharer state directly on its miss
        # path, and no method replaces any of the four containers, so
        # their identity holds for the length of a run.
        self.slots: Dict[int, int] = {}
        self.owners: List[int] = []
        self.sharer_masks: List[int] = []
        self.held_masks: List[int] = []

    def _new_slot(self, block: int) -> int:
        s = len(self.owners)
        self.slots[block] = s
        self.owners.append(NO_OWNER)
        self.sharer_masks.append(0)
        self.held_masks.append(0)
        return s

    def __len__(self) -> int:
        return len(self.slots)

    def __contains__(self, block: int) -> bool:
        return block in self.slots

    # ------------------------------------------------------------------
    # requests from remote nodes (and from the home itself)
    # ------------------------------------------------------------------

    def read_request(self, block: int, node: int) -> int:
        """Node ``node`` asks the home for a readable copy of ``block``.

        A request from a node still marked was-held is a refetch — also
        when the home thought the node *owned* the block (silent
        eviction of an exclusive-clean line, or an L1/block-cache race).
        """
        s = self.slots.get(block)
        if s is None:
            s = self._new_slot(block)
        owner = self.owners[s]
        out = (self.held_masks[s] >> node) & 1
        if owner >= 0 and owner != node:
            # Owner is downgraded to a shared copy; data returns home.
            out |= (owner + 1) << OUT_OWNER_SHIFT
            self.owners[s] = NO_OWNER
        elif owner == node:
            self.owners[s] = NO_OWNER
        bit = 1 << node
        self.sharer_masks[s] |= bit
        self.held_masks[s] |= bit
        return out

    def write_request(self, block: int, node: int, upgrade: bool = False) -> int:
        """Node ``node`` asks for exclusive ownership of ``block``.

        ``upgrade`` marks requests from a node that still holds a valid
        read-only copy: a distinguishable message type in real
        protocols, never a refetch (the node lost nothing to
        replacement — it only needs write permission).
        """
        s = self.slots.get(block)
        if s is None:
            s = self._new_slot(block)
        owner = self.owners[s]
        bit = 1 << node
        out = 0
        if not upgrade and owner != node:
            out = (self.held_masks[s] >> node) & 1
        if owner >= 0 and owner != node:
            out |= (owner + 1) << OUT_OWNER_SHIFT
        # Coherence invalidation clears was-held for every displaced
        # node: their next miss is a communication miss, not a refetch.
        out |= (self.sharer_masks[s] & ~bit) << OUT_INVAL_SHIFT
        self.sharer_masks[s] = bit
        self.held_masks[s] = bit
        self.owners[s] = node
        return out

    # ------------------------------------------------------------------
    # home-node accesses to its own memory
    #
    # Local accesses never travel to a "home" (they are at home already),
    # so they are never refetches; they only interact with the directory
    # when a remote node holds the block exclusively (read) or holds any
    # copy (write).
    # ------------------------------------------------------------------

    def home_read_access(self, block: int, home: int) -> int:
        """The home node reads a block of its own memory."""
        s = self.slots.get(block)
        if s is None:
            return 0
        owner = self.owners[s]
        if owner < 0 or owner == home:
            return 0
        self.owners[s] = NO_OWNER
        return (owner + 1) << OUT_OWNER_SHIFT

    def home_write_access(self, block: int, home: int) -> int:
        """The home node writes a block of its own memory.

        All remote copies must be invalidated (and cleared from
        was-held, so their next miss counts as coherence).
        """
        s = self.slots.get(block)
        if s is None:
            return 0
        owner = self.owners[s]
        out = 0
        if owner >= 0 and owner != home:
            out = (owner + 1) << OUT_OWNER_SHIFT
        out |= (self.sharer_masks[s] & ~(1 << home)) << OUT_INVAL_SHIFT
        self.owners[s] = NO_OWNER
        self.sharer_masks[s] = 0
        self.held_masks[s] = 0
        return out

    # ------------------------------------------------------------------
    # notifications from nodes
    # ------------------------------------------------------------------

    def writeback(self, block: int, node: int) -> None:
        """Voluntary write-back of a dirty block (block-cache eviction).

        The node returns the data but — per the paper's refetch-detection
        scheme — remains in ``was_held``: if it asks again without an
        intervening coherence invalidation, that request is a refetch.
        """
        s = self.slots.get(block)
        if s is None:
            raise ProtocolError(f"writeback of untracked block {block}")
        if self.owners[s] == node:
            self.owners[s] = NO_OWNER
        # Node keeps its sharer/was_held bits (non-notifying protocol).

    def flush(self, block: int, node: int) -> None:
        """Explicit flush-and-forget (S-COMA replacement / page unmap).

        Unlike :meth:`writeback`, the node relinquishes the block
        entirely and the home forgets it ever held it.
        """
        s = self.slots.get(block)
        if s is None:
            return
        if self.owners[s] == node:
            self.owners[s] = NO_OWNER
        keep = ~(1 << node)
        self.sharer_masks[s] &= keep
        self.held_masks[s] &= keep

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and the harness)
    # ------------------------------------------------------------------

    def owner_of(self, block: int) -> int:
        s = self.slots.get(block)
        return self.owners[s] if s is not None else NO_OWNER

    def sharers_mask(self, block: int) -> int:
        """Sharer bitmask (the engine's no-allocation sole-copy probe)."""
        s = self.slots.get(block)
        return self.sharer_masks[s] if s is not None else 0

    def was_held_mask(self, block: int) -> int:
        s = self.slots.get(block)
        return self.held_masks[s] if s is not None else 0

    def sharers_of(self, block: int) -> frozenset:
        return frozenset(bits_of(self.sharers_mask(block)))

    def was_held_by(self, block: int, node: int) -> bool:
        return bool((self.was_held_mask(block) >> node) & 1)

    def check(self, block: int) -> None:
        """Raise ProtocolError if ``block``'s invariants are violated."""
        s = self.slots.get(block)
        if s is None:
            return
        owner = self.owners[s]
        if owner != NO_OWNER:
            if not (self.sharer_masks[s] >> owner) & 1:
                raise ProtocolError(f"owner {owner} must be in sharers")
            if self.sharer_masks[s] != 1 << owner:
                raise ProtocolError(
                    f"exclusive owner {owner} but "
                    f"sharers={bits_of(self.sharer_masks[s])}"
                )
            if not (self.held_masks[s] >> owner) & 1:
                raise ProtocolError("owner must be in was_held")


class LimitedPointerDirectory(Directory):
    """Dir_i-style limited-pointer directory.

    Up to ``pointers`` sharers per block are tracked exactly (the mask
    simply never grows past that many bits).  Admitting a sharer beyond
    capacity triggers the overflow policy:

    ``"broadcast"``
        The entry saturates: the sharer mask becomes all-nodes, so the
        next write-ownership grant invalidates every other node.  A
        write (or home write) collapses the entry back to the exact
        single-sharer state.  No per-slot flag records the saturation:
        an exact entry never lists more than ``pointers`` nodes, so an
        entry is saturated exactly when its mask is ``all_mask`` and
        ``pointers < nodes``.
    ``"evict"``
        The entry stays exact: the lowest-numbered existing sharer is
        displaced to free its pointer.  The victim is reported in the
        *read* outcome's invalidation bits (the one case where a read
        carries them) and loses its was-held status — its next miss is
        a coherence miss, never a refetch, exactly as for a
        write-driven invalidation.

    With ``pointers >= nodes`` overflow never fires and every operation
    is bit-identical to the full-map base class.  Writes and home writes
    follow the base class's rules in every case.
    """

    __slots__ = ("nodes", "pointers", "evict_on_overflow", "all_mask", "overflows")

    def __init__(
        self, nodes: int, pointers: int = 4, overflow: str = "broadcast"
    ) -> None:
        super().__init__()
        if nodes < 1:
            raise ConfigurationError("directory needs at least one node")
        if pointers < 1:
            raise ConfigurationError("directory pointers must be positive")
        if overflow not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown overflow policy {overflow!r}; "
                "expected 'broadcast' or 'evict'"
            )
        self.nodes = nodes
        self.pointers = pointers
        self.evict_on_overflow = overflow == "evict"
        self.all_mask = (1 << nodes) - 1
        self.overflows = 0

    def _saturated(self, mask: int) -> bool:
        """An entry with this sharer mask is in broadcast mode."""
        return (
            mask == self.all_mask
            and self.pointers < self.nodes
            and not self.evict_on_overflow
        )

    def read_request(self, block: int, node: int) -> int:
        s = self.slots.get(block)
        if s is None:
            s = self._new_slot(block)
        owner = self.owners[s]
        out = (self.held_masks[s] >> node) & 1
        if owner >= 0 and owner != node:
            out |= (owner + 1) << OUT_OWNER_SHIFT
            self.owners[s] = NO_OWNER
        elif owner == node:
            self.owners[s] = NO_OWNER
        bit = 1 << node
        self.held_masks[s] |= bit
        mask = self.sharer_masks[s]
        if mask & bit:
            # Already listed (saturated entries list everyone).
            return out
        mask |= bit
        if mask.bit_count() > self.pointers:
            self.overflows += 1
            if self.evict_on_overflow:
                # Deterministic pointer replacement: displace the
                # lowest-numbered sharer that is not the requester.
                victims = mask & ~bit
                victim = victims & -victims
                mask ^= victim
                self.held_masks[s] &= ~victim
                out |= victim << OUT_INVAL_SHIFT
            else:
                mask = self.all_mask
        self.sharer_masks[s] = mask
        return out

    def flush(self, block: int, node: int) -> None:
        s = self.slots.get(block)
        if s is None:
            return
        if self.owners[s] == node:
            self.owners[s] = NO_OWNER
        self.held_masks[s] &= ~(1 << node)
        if not self._saturated(self.sharer_masks[s]):
            self.sharer_masks[s] &= ~(1 << node)
        # A saturated entry has no pointer to remove: the mask stays
        # all-nodes (conservative) until a write collapses it.

    def check(self, block: int) -> None:
        s = self.slots.get(block)
        if s is None:
            return
        mask = self.sharer_masks[s]
        if mask & ~self.all_mask:
            raise ProtocolError(
                f"sharer mask {mask:#x} has bits beyond {self.nodes} nodes"
            )
        if mask.bit_count() > self.pointers and not self._saturated(mask):
            # Only a saturated (all-nodes) entry lists more than
            # ``pointers`` sharers.
            raise ProtocolError(
                f"{mask.bit_count()} sharers exceed "
                f"{self.pointers} hardware pointers"
            )
        if self.held_masks[s] & ~mask:
            raise ProtocolError("was_held must be a subset of sharers")
        owner = self.owners[s]
        if owner != NO_OWNER:
            if mask != 1 << owner:
                raise ProtocolError(
                    f"exclusive owner {owner} but sharers={bits_of(mask)}"
                )
            if not (self.held_masks[s] >> owner) & 1:
                raise ProtocolError("owner must be in was_held")


class CoarseVectorDirectory(Directory):
    """Coarse-vector directory: one sharer bit per ``region_size`` nodes.

    The stored mask is always region-aligned — a union of whole
    regions — so admitting one reader admits its region-mates as
    presumed sharers and a write-ownership grant invalidates whole
    regions.  ``owners`` stays an exact node pointer (a dirty block has
    exactly one identified owner in hardware too), and ``held_masks``
    stays exact per node.

    A flush cannot clear the flushing node's region bit (region-mates
    may still genuinely share the block), except when the node's region
    contains only itself — which is what makes ``region_size == 1``
    bit-identical to the full-map base class.
    """

    __slots__ = ("nodes", "region_size", "all_mask", "region_masks")

    def __init__(self, nodes: int, region_size: int = 4) -> None:
        super().__init__()
        if nodes < 1:
            raise ConfigurationError("directory needs at least one node")
        if region_size < 1:
            raise ConfigurationError("directory region_size must be positive")
        self.nodes = nodes
        self.region_size = region_size
        self.all_mask = (1 << nodes) - 1
        full = (1 << region_size) - 1
        #: node -> the mask of its whole region, clipped to real nodes.
        self.region_masks: List[int] = [
            (full << (n - n % region_size)) & self.all_mask
            for n in range(nodes)
        ]

    def expand(self, mask: int) -> int:
        """Region closure of ``mask`` (cold-path/check helper)."""
        out = 0
        while mask:
            low = mask & -mask
            out |= self.region_masks[low.bit_length() - 1]
            mask &= ~out
        return out

    def read_request(self, block: int, node: int) -> int:
        s = self.slots.get(block)
        if s is None:
            s = self._new_slot(block)
        owner = self.owners[s]
        out = (self.held_masks[s] >> node) & 1
        if owner >= 0 and owner != node:
            out |= (owner + 1) << OUT_OWNER_SHIFT
            self.owners[s] = NO_OWNER
        elif owner == node:
            self.owners[s] = NO_OWNER
        self.sharer_masks[s] |= self.region_masks[node]
        self.held_masks[s] |= 1 << node
        return out

    def write_request(self, block: int, node: int, upgrade: bool = False) -> int:
        out = Directory.write_request(self, block, node, upgrade=upgrade)
        # The writer's region is the finest grain the vector can hold.
        self.sharer_masks[self.slots[block]] = self.region_masks[node]
        return out

    def flush(self, block: int, node: int) -> None:
        s = self.slots.get(block)
        if s is None:
            return
        if self.owners[s] == node:
            self.owners[s] = NO_OWNER
        bit = 1 << node
        self.held_masks[s] &= ~bit
        if self.region_masks[node] == bit:
            # Single-node region: removing it keeps the mask
            # region-aligned and loses no information.
            self.sharer_masks[s] &= ~bit

    def check(self, block: int) -> None:
        s = self.slots.get(block)
        if s is None:
            return
        mask = self.sharer_masks[s]
        if mask & ~self.all_mask:
            raise ProtocolError(
                f"sharer mask {mask:#x} has bits beyond {self.nodes} nodes"
            )
        if mask != self.expand(mask):
            raise ProtocolError(
                f"sharer mask {bits_of(mask)} is not a union of "
                f"{self.region_size}-node regions"
            )
        if self.held_masks[s] & ~mask:
            raise ProtocolError("was_held must be a subset of sharers")
        owner = self.owners[s]
        if owner != NO_OWNER:
            if not (mask >> owner) & 1:
                raise ProtocolError(f"owner {owner} must be in sharers")
            if mask != self.region_masks[owner]:
                raise ProtocolError(
                    f"exclusive owner {owner} but sharers={bits_of(mask)} "
                    "is not exactly the owner's region"
                )
            if not (self.held_masks[s] >> owner) & 1:
                raise ProtocolError("owner must be in was_held")


def make_directory(params, nodes: int) -> Directory:
    """Build the directory variant a ``DirectoryParams`` describes.

    ``params`` may be ``None`` (exact full-map) or any object with
    ``representation`` / ``pointers`` / ``overflow`` / ``region_size``
    attributes.  It stays duck-typed: :mod:`repro.common.params` imports
    this module for :data:`REPRESENTATIONS` and :data:`OVERFLOW_POLICIES`,
    so importing ``DirectoryParams`` here would be a cycle.
    """
    if params is None:
        return Directory()
    rep = params.representation
    if rep == "fullmap":
        return Directory()
    if rep == "limited":
        return LimitedPointerDirectory(nodes, params.pointers, params.overflow)
    if rep == "coarse":
        return CoarseVectorDirectory(nodes, params.region_size)
    raise ConfigurationError(f"unknown directory representation {rep!r}")
