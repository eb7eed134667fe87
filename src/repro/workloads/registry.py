"""Workload registry: name -> builder, with Table 3 metadata and a
process-wide compiled-program cache.

Trace generation is deterministic, so a ``(name, scale, machine-shape,
address-space)`` key always yields the same compiled program, and the
cache lets a cross-protocol sweep (the four systems of Figure 6, say)
generate and compile each workload exactly once: protocols differ only
in the :class:`~repro.common.params.SystemConfig`, never in the trace.
``build_counts()`` exposes how many times each key was actually
generated, so tests (and profiling) can assert the reuse contract.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addressing import AddressSpace
from repro.common.errors import ConfigurationError
from repro.common.params import MachineParams
from repro.workloads.base import Program
from repro.workloads.apps import (
    barnes,
    cholesky,
    em3d,
    fft,
    fmm,
    lu,
    moldyn,
    ocean,
    radix,
    raytrace,
)

Builder = Callable[..., Program]

#: name -> (builder, problem description, paper input) — the paper's Table 3.
APPLICATIONS: Dict[str, Tuple[Builder, str, str]] = {
    "barnes": (barnes.build, "Barnes-Hut N-body simulation", barnes.PAPER_INPUT),
    "cholesky": (
        cholesky.build,
        "Blocked sparse Cholesky factorization",
        cholesky.PAPER_INPUT,
    ),
    "em3d": (em3d.build, "3-D electromagnetic wave propagation", em3d.PAPER_INPUT),
    "fft": (fft.build, "Complex 1-D radix-sqrt(n) six-step FFT", fft.PAPER_INPUT),
    "fmm": (fmm.build, "Fast Multipole N-body simulation", fmm.PAPER_INPUT),
    "lu": (lu.build, "Blocked dense LU factorization", lu.PAPER_INPUT),
    "moldyn": (moldyn.build, "Molecular dynamics simulation", moldyn.PAPER_INPUT),
    "ocean": (ocean.build, "Ocean simulation", ocean.PAPER_INPUT),
    "radix": (radix.build, "Integer radix sort", radix.PAPER_INPUT),
    "raytrace": (raytrace.build, "3-D scene rendering using ray-tracing", raytrace.PAPER_INPUT),
}

ProgramKey = Tuple[str, float, int, int, int, int]

_cache: Dict[ProgramKey, Program] = {}
#: how many times each key was actually *generated* (cache misses).
_build_counts: Counter = Counter()


def workload_names() -> List[str]:
    """All application names, in the paper's (alphabetical) order."""
    return list(APPLICATIONS)


def program_key(
    name: str,
    machine: Optional[MachineParams] = None,
    space: Optional[AddressSpace] = None,
    scale: float = 1.0,
) -> ProgramKey:
    """The compiled-program cache key: everything generation depends on."""
    machine = machine or MachineParams()
    space = space or AddressSpace()
    return (
        name,
        scale,
        machine.nodes,
        machine.cpus_per_node,
        space.block_size,
        space.page_size,
    )


def build_program(
    name: str,
    machine: Optional[MachineParams] = None,
    space: Optional[AddressSpace] = None,
    scale: float = 1.0,
) -> Program:
    """Build (or fetch from cache) the named application's program."""
    if name not in APPLICATIONS:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {', '.join(APPLICATIONS)}"
        )
    machine = machine or MachineParams()
    space = space or AddressSpace()
    key = program_key(name, machine, space, scale)
    if key in _cache:
        return _cache[key]
    builder, _, _ = APPLICATIONS[name]
    program = builder(machine, space, scale=scale)
    _build_counts[key] += 1
    _cache[key] = program
    return program


def build_counts() -> Dict[ProgramKey, int]:
    """Generation counts per program key since the last reset.

    A four-protocol sweep over a warm cache shows exactly one build per
    (app, scale, machine, space) — the cross-protocol reuse contract.
    """
    return dict(_build_counts)


def reset_build_counts() -> None:
    """Zero the generation counters (tests bracket sweeps with this)."""
    _build_counts.clear()


def clear_cache() -> None:
    """Drop all cached programs (tests use this to bound memory)."""
    _cache.clear()
