"""repro — a reproduction of "Reactive NUMA: A Design for Unifying
S-COMA and CC-NUMA" (Falsafi & Wood, ISCA 1997).

The library simulates a cluster of SMP nodes running one of four
distributed-shared-memory remote-caching protocols — CC-NUMA, S-COMA,
R-NUMA, and an ideal infinite-block-cache CC-NUMA — over trace programs
produced by scaled SPLASH-2-style workload kernels.

Quickstart::

    from repro import base_rnuma_config, build_program, simulate

    program = build_program("barnes")
    result = simulate(base_rnuma_config(), program)
    print(result.exec_cycles, result.summary())

See ``docs/architecture.md`` for the system inventory and
``docs/reproducing.md`` for regenerating the paper's figures.
"""

from repro.common.addressing import AddressSpace
from repro.common.params import (
    CacheParams,
    CostParams,
    MachineParams,
    ObsParams,
    SystemConfig,
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
)
from repro.common.records import Access, Barrier, TraceView
from repro.interconnect.topology import make_topology, topology_names
from repro.model.competitive import (
    CompetitiveModel,
    ModelParameters,
    optimal_threshold,
    worst_case_bound,
)
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.results import SimulationResult
from repro.workloads.base import Program, TraceBuilder
from repro.workloads.compile import CompiledProgram
from repro.workloads.registry import APPLICATIONS, build_program, workload_names

__version__ = "1.0.0"

__all__ = [
    "APPLICATIONS",
    "Access",
    "AddressSpace",
    "Barrier",
    "CacheParams",
    "CompetitiveModel",
    "CompiledProgram",
    "CostParams",
    "MachineParams",
    "ModelParameters",
    "ObsParams",
    "Program",
    "SimulationEngine",
    "SimulationResult",
    "SystemConfig",
    "TraceBuilder",
    "TraceView",
    "base_ccnuma_config",
    "base_rnuma_config",
    "base_scoma_config",
    "build_program",
    "ideal_config",
    "make_topology",
    "optimal_threshold",
    "simulate",
    "topology_names",
    "workload_names",
    "worst_case_bound",
    "__version__",
]
