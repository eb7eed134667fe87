"""Trace records and the columnar trace encoding.

A per-processor trace is conceptually a sequence of :class:`TraceItem`.
There are two kinds:

- :class:`Access` — a data reference: byte address, read/write, and the
  number of compute ("think") cycles the processor spends *before* issuing
  it.  Think cycles model the instruction stream between memory references
  so that memory-system stalls are diluted realistically.
- :class:`Barrier` — a global synchronization point.  All processors in
  the machine must reach barrier *k* before any may proceed.  Barriers are
  identified by their ordinal position; generators must emit the same
  sequence of barrier ids on every processor.

Columnar encoding
-----------------

Storing millions of references as frozen dataclasses costs ~100 bytes
and one allocation each.  The pipeline therefore keeps traces as
*columns*: one ``array('q')`` of packed 64-bit words per processor,
8 bytes per reference, contiguous and cheap to pickle to executor
workers.  The word layout:

- an :class:`Access` packs to a non-negative word
  ``(addr << ADDR_SHIFT) | (think << 1) | is_write`` — 42 address bits
  (4 TB), 20 think bits, 1 write bit;
- a :class:`Barrier` packs to the negative word ``-(ident + 1)``, so the
  sign bit doubles as the kind discriminator and the engine's hot loop
  classifies an item with a single comparison.

:class:`TraceView` adapts a column back to the legacy object sequence
lazily, so existing code (and tests) that iterate ``program.traces``
keep seeing :class:`Access`/:class:`Barrier` instances without the
column ever being materialized as objects.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from repro.common.errors import TraceError


@dataclass(frozen=True)
class Access:
    """A single data reference issued by one processor."""

    addr: int
    is_write: bool = False
    think: int = 0

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"address must be non-negative, got {self.addr}")
        if self.think < 0:
            raise ValueError(f"think cycles must be non-negative, got {self.think}")


@dataclass(frozen=True)
class Barrier:
    """A global barrier; ``ident`` orders barriers within the program."""

    ident: int

    def __post_init__(self) -> None:
        if self.ident < 0:
            raise ValueError(f"barrier id must be non-negative, got {self.ident}")


TraceItem = Union[Access, Barrier]
Trace = List[TraceItem]

# -- packed-word layout ------------------------------------------------

#: bits below the address field: 20 think bits + 1 write bit.
THINK_BITS = 20
ADDR_SHIFT = THINK_BITS + 1
THINK_MASK = (1 << THINK_BITS) - 1
#: largest encodable byte address (42 bits: 4 TB) and think time.
MAX_ADDR = (1 << (63 - ADDR_SHIFT)) - 1
MAX_THINK = THINK_MASK

#: typecode of a trace column; one signed 64-bit word per item.
COLUMN_TYPECODE = "q"


def encode_access(addr: int, is_write: bool, think: int) -> int:
    """Pack one data reference into a non-negative 64-bit word."""
    if not 0 <= addr <= MAX_ADDR:
        raise TraceError(
            f"address {addr:#x} outside the encodable range [0, {MAX_ADDR:#x}]"
        )
    if not 0 <= think <= MAX_THINK:
        raise TraceError(
            f"think time {think} outside the encodable range [0, {MAX_THINK}]"
        )
    return (addr << ADDR_SHIFT) | (think << 1) | (1 if is_write else 0)


def encode_barrier(ident: int) -> int:
    """Pack one barrier into a negative word (sign bit = kind)."""
    if ident < 0:
        raise TraceError(f"barrier id must be non-negative, got {ident}")
    return -1 - ident


def decode_item(word: int) -> TraceItem:
    """The :class:`Access`/:class:`Barrier` a packed word represents."""
    if word < 0:
        return Barrier(-1 - word)
    return Access(word >> ADDR_SHIFT, bool(word & 1), (word >> 1) & THINK_MASK)


def new_column() -> array:
    """An empty trace column."""
    return array(COLUMN_TYPECODE)


class TraceView(_SequenceABC):
    """Read-only object view of one packed trace column.

    Indexing and iteration decode words to :class:`Access`/:class:`Barrier`
    on demand; the column itself stays the storage.  Views compare equal
    to other views over equal columns (word-wise, at C speed) and to
    plain item sequences element-wise, which keeps legacy tests and
    call sites working unchanged.
    """

    __slots__ = ("_column",)

    def __init__(self, column: array) -> None:
        self._column = column

    @property
    def column(self) -> array:
        """The underlying packed column (shared, not a copy)."""
        return self._column

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [decode_item(word) for word in self._column[index]]
        return decode_item(self._column[index])

    def __iter__(self):
        return map(decode_item, self._column)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceView):
            return self._column == other._column
        if isinstance(other, (list, tuple)):
            return len(self._column) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self):
        raise TypeError("TraceView is unhashable (it wraps a mutable column)")

    def __repr__(self) -> str:
        return f"TraceView({len(self._column)} items)"


def compile_trace(items: Iterable[object]) -> array:
    """Pack one processor's Access/Barrier sequence into a column.

    Anything other than an :class:`Access`/:class:`Barrier` raises
    :class:`TraceError` — already-packed columns and views never reach
    this function (:func:`as_columns` passes them through untouched).
    """
    column = new_column()
    append = column.append
    for item in items:
        if isinstance(item, Access):
            # Inlined encode_access: Access.__post_init__ already
            # guarantees non-negative fields, so only the upper bounds
            # need checking on this hot conversion path.
            addr = item.addr
            think = item.think
            if addr > MAX_ADDR or think > MAX_THINK:
                encode_access(addr, item.is_write, think)  # raises
            append((addr << ADDR_SHIFT) | (think << 1) | (1 if item.is_write else 0))
        elif isinstance(item, Barrier):
            append(-1 - item.ident)
        else:
            raise TraceError(f"unknown trace item: {item!r}")
    return column


def column_profile(column: array) -> Tuple[int, int, int]:
    """``(accesses, think_cycles, runs)`` of one packed trace column.

    ``runs`` counts barrier-free access stretches.  The scan behind
    :meth:`repro.workloads.compile.CompiledProgram.per_cpu_profile`,
    which memoizes it for the engine's analytic hit/busy accounting.
    """
    accesses = 0
    think = 0
    runs = 0
    in_run = False
    for word in column:
        if word >= 0:
            accesses += 1
            think += (word >> 1) & THINK_MASK
            if not in_run:
                runs += 1
                in_run = True
        else:
            in_run = False
    return accesses, think, runs


def barrier_sequence(column: array) -> List[int]:
    """The ordered barrier ids a column crosses."""
    return [-1 - word for word in column if word < 0]


def validate_barrier_sequences(columns: Sequence[array]) -> List[int]:
    """Check every column passes the same barrier sequence; returns it.

    Mismatched sequences would deadlock the engine mid-run; validating
    at compile time turns that into an immediate :class:`TraceError`.
    """
    first: List[int] = barrier_sequence(columns[0]) if columns else []
    for cpu, column in enumerate(columns):
        seq = barrier_sequence(column) if cpu else first
        if seq != first:
            raise TraceError(
                f"cpu {cpu} barrier sequence {seq[:8]}... does not match cpu 0"
            )
    return first


def as_columns(traces) -> List[array]:
    """Normalize any trace representation to a list of packed columns.

    Accepts a compiled program (anything with a ``columns`` attribute),
    a sequence of columns/:class:`TraceView` — passed through without
    copying — or legacy per-CPU Access/Barrier sequences, which are
    packed here.  Barrier-sequence consistency is *not* checked here: a
    :class:`~repro.workloads.compile.CompiledProgram` built from foreign
    input runs :func:`validate_barrier_sequences` on the result.
    """
    ready = getattr(traces, "columns", None)
    if ready is not None:
        return list(ready)
    columns: List[array] = []
    for trace in traces:
        if isinstance(trace, array):
            columns.append(trace)
        elif isinstance(trace, TraceView):
            columns.append(trace.column)
        else:
            columns.append(compile_trace(trace))
    return columns
