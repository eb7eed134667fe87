"""Witness-proven result reuse: answer equivalent jobs from one run.

The paper's sweeps move one knob at a time around a base machine, and
many of their points never use the knob they move: no page is
replaced, no refetch count reaches the threshold, no directory pointer
overflows.  Such a point is the same simulation as its neighbour under
another key.  Each rule below frees some fields of a configuration and
says when a finished result *proves* that a configuration differing
from its own only in those fields would come out identical; the proof
is the result's *witness*, a counter of the run itself.

- **Page cache** (``caches.page_cache_size``, ``caches.page_replacement``).
  ``ccnuma`` and ``ideal`` give their nodes no page frames, so the
  fields are unused.  Otherwise a run that replaced no page answers any
  page cache with at least its frames, under any replacement policy.
- **Relocation** (``relocation_threshold``, ``relocation_mode``).
  Only ``rnuma`` reads them.  An R-NUMA run that relocated nothing,
  whose largest per-(node, page) refetch count is m, answers any
  threshold greater than m, under either mode.
- **Directory** (``directory``).  A limited-pointer run with p pointers
  that never overflowed answers the full map and every limited
  directory with at least p pointers, under either overflow policy.
  The witness (:attr:`SimulationResult.directory_overflows`) is not
  stored, so a result loaded from the store answers no directory
  member.
- **Topology**, static: a mesh and a torus whose grid has no dimension
  longer than 2 have the same links and routes, so :func:`group_key`
  folds them into one name and they answer each other.

The proofs are in ``docs/architecture.md``, "Result reuse".
:meth:`repro.experiments.executor.Executor.run` groups pending jobs by
:func:`group_key`, simulates the :func:`tightness`-first unresolved job
of each group, and answers the rest with :func:`answers`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.common.params import DirectoryParams, SystemConfig
from repro.experiments.runner import Job, config_key
from repro.interconnect.topology import grid_dims
from repro.sim.results import SimulationResult

#: Protocols whose nodes get no page frames (``Node.__init__``).
_NO_PAGE_CACHE = ("ccnuma", "ideal")

#: Directory representations in the order a group tries them: a limited
#: directory can answer the full map, and a coarse one answers nothing.
_DIRECTORY_RANK = {"limited": 0, "fullmap": 1, "coarse": 2}


def _topology(config: SystemConfig) -> str:
    """``config.topology``, with a torus that is the same graph as the
    mesh (no grid dimension longer than 2, so every wrap link repeats
    a mesh link) renamed to the mesh."""
    if config.topology == "torus" and max(grid_dims(config.machine.nodes)) <= 2:
        return "mesh"
    return config.topology


def group_key(job: Job) -> Tuple:
    """The job's identity with every field a rule can free blanked:
    two jobs share a group exactly when they differ in nothing else."""
    config = job.config
    blank = replace(
        config,
        caches=replace(config.caches, page_cache_size=0, page_replacement="lrm"),
        relocation_threshold=1,
        relocation_mode="local",
        directory=DirectoryParams(),
        topology=_topology(config),
    )
    return (job.app, job.scale, config_key(blank))


def tightness(job: Job) -> Tuple:
    """Sort key putting the job that can answer the most members first:
    the smallest page cache, the lowest threshold, then a limited
    directory (fewest pointers first) before the full map."""
    config = job.config
    return (
        config.caches.page_cache_size,
        config.relocation_threshold,
        _DIRECTORY_RANK[config.directory.representation],
        config.directory.pointers,
    )


def max_refetch_count(result: SimulationResult) -> int:
    """m: the largest refetch count of any (node, page) of ``result``."""
    return max(
        (n for per_node in result.refetch_counts.values() for n in per_node.values()),
        default=0,
    )


def _page_cache_admits(
    rep: SystemConfig, result: SimulationResult, member: SystemConfig
) -> bool:
    if rep.caches == member.caches or rep.protocol in _NO_PAGE_CACHE:
        return True
    return result.total("page_replacements") == 0 and (
        member.caches.page_cache_frames(member.space)
        >= rep.caches.page_cache_frames(rep.space)
    )


def _relocation_admits(
    rep: SystemConfig, result: SimulationResult, member: SystemConfig
) -> bool:
    same = (rep.relocation_threshold, rep.relocation_mode) == (
        member.relocation_threshold,
        member.relocation_mode,
    )
    if same or rep.protocol != "rnuma":
        return True
    return result.total("relocations") == 0 and (
        member.relocation_threshold > max_refetch_count(result)
    )


def _directory_admits(
    rep: SystemConfig, result: SimulationResult, member: SystemConfig
) -> bool:
    if rep.directory == member.directory:
        return True
    wanted = member.directory
    return (
        rep.directory.representation == "limited"
        and result.directory_overflows == 0
        and (
            wanted.representation == "fullmap"
            or (
                wanted.representation == "limited"
                and wanted.pointers >= rep.directory.pointers
            )
        )
    )


def answers(rep: Job, result: SimulationResult, member: Job) -> bool:
    """Whether ``result``, the finished run of ``rep``, proves that
    ``member`` would give the same result apart from its ``config``.

    Every freed field in which the two differ must be cleared by its
    rule's witness.  The rules compose: a run that needs none of its
    page-cache victims, relocations or pointer overflows needs none of
    them under any combination of the looser settings either.
    """
    a, b = rep.config, member.config
    return (
        group_key(rep) == group_key(member)
        and _page_cache_admits(a, result, b)
        and _relocation_admits(a, result, b)
        and _directory_admits(a, result, b)
    )


def groups(jobs: Iterable[Job]) -> List[List[Job]]:
    """``jobs`` by :func:`group_key`, groups in first-seen order, each
    sorted tightest first (ties in first-seen order)."""
    by_key: Dict[Tuple, List[Job]] = {}
    for job in jobs:
        by_key.setdefault(group_key(job), []).append(job)
    return [sorted(members, key=tightness) for members in by_key.values()]


def answerable(
    group: List[Job], resolved: Mapping[Tuple, SimulationResult], unresolved: set
) -> Iterator[Tuple[Job, SimulationResult]]:
    """``(member, result)`` for each member of ``group`` whose key is in
    ``unresolved`` and that some resolved result of the group admits
    (:func:`answers`); ``result`` is that admitting result.  Both
    mappings are read lazily, so a member the caller records as
    answered can answer the members after it."""
    for member in group:
        if member.key not in unresolved:
            continue
        for rep in group:
            result = resolved.get(rep.key)
            if result is not None and answers(rep, result, member):
                yield member, result
                break
