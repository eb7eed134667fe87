"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the workload suite (Table 3).
``topologies``
    Show the interconnect topologies (links, mean/max hops per size).
``directories``
    Show the directory sharer-set representations and their knobs.
``engines``
    Show the engine backends.
``run APP``
    Simulate one application under one or all protocols, optionally on
    a non-uniform interconnect topology (``--topology``,
    ``--link-latency``, ``--link-occupancy``), with a scalable
    directory representation (``--directory``, ``--dir-pointers``,
    ``--dir-overflow``, ``--dir-region``), and/or on a non-default
    engine backend (``--engine``).
``trace-stats APP``
    Inspect an application's compiled trace: per-CPU reference counts,
    barriers, pages touched, and the packed-buffer footprint.
``figure {5,6,7,8,9}``
    Regenerate a paper figure.
``table {1,2,3,4}``
    Regenerate a paper table.
``ablation {placement,relocation,replacement}``
    Run one of the design-choice ablations.
``reproduce``
    Regenerate every section of :data:`SECTIONS` (each figure and
    table, plus the ablations and the cluster-size, topology, and
    directory extensions) in one sweep, fanned out over ``--jobs``
    worker processes and backed by the persistent result store, so a
    second invocation does near-zero simulation work.
    ``--heartbeat`` streams per-job progress,
    ``--profile`` breaks down where the wall time went, and a run
    manifest is written next to the stored results.  ``--engine``
    accepts only ``runahead``, the one production backend, and selects
    nothing.  The sweep is fault-tolerant: a crashed
    or hung job is retried (``--retries``, ``--job-timeout``,
    ``--backoff``) and, if
    it permanently fails, recorded in the manifest while the rest of
    the sweep completes.  A failed sweep exits nonzero with a failure
    table; running the same command again simulates only the jobs the
    store lacks, the failed ones among them.
``store {verify,gc,stats}``
    Maintain the persistent result store: ``verify`` fscks every entry
    (quarantining corrupt ones), ``gc`` removes stale-schema entries
    and old orphan temp files, ``stats`` summarizes the directory.
``report FILE``
    Summarize a trace (``run --trace``) or metrics (``run --metrics``)
    file; ``--validate`` also checks it against the checked-in schema.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.coherence.directory import OVERFLOW_POLICIES, REPRESENTATIONS
from repro.common.addressing import AddressSpace
from repro.common.errors import ConfigurationError
from repro.common.params import (
    DirectoryParams,
    ObsParams,
    RetryPolicy,
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
)
import repro.experiments as experiments
from repro.experiments.executor import (
    TMP_GC_AGE_S,
    Executor,
    JobFailure,
    ResultStore,
    SweepFailure,
    default_store_dir,
)
from repro.experiments.runner import Grid, grid_jobs
from repro.interconnect.routing import routing_table_for
from repro.interconnect.topology import TOPOLOGIES, topology_names
from repro.sim.engine import ENGINES, simulate
from repro.workloads.registry import APPLICATIONS, build_program, workload_names

_PROTOCOL_CONFIGS = {
    "ideal": ideal_config,
    "ccnuma": base_ccnuma_config,
    "scoma": base_scoma_config,
    "rnuma": base_rnuma_config,
}


class Section(NamedTuple):
    """One report section, defined once: ``reproduce`` submits the
    union of every section's ``grid(scale, apps)`` jobs and prints each
    ``render(scale, apps, executor)`` in registry order; ``command``
    (e.g. ``("figure", "6")``) is the sub-command that prints it alone."""

    label: str
    command: Optional[Tuple[str, str]]
    grid: Optional[Callable[..., Grid]]
    render: Callable[..., str]


def _computed(compute, fmt) -> Callable[..., str]:
    """Render a section by computing it through the executor."""
    return lambda scale, apps, executor: fmt(
        compute(scale=scale, apps=apps, executor=executor)
    )


#: Every section of the ``reproduce`` report, in report order.  Each
#: section function is read as ``experiments.<name>``: the grids and
#: the computed sections' functions here, at import; the tables' when
#: they render.
SECTIONS: Tuple[Section, ...] = (
    Section("Table 1", ("table", "1"), None, lambda *_: experiments.format_table1()),
    Section("Table 2", ("table", "2"), None, lambda *_: experiments.format_table2()),
    Section("Table 3", ("table", "3"), None,
            lambda scale, *_: experiments.format_table3(scale=scale)),
    Section("Figure 5", ("figure", "5"), experiments.figure5_grid,
            _computed(experiments.compute_figure5, experiments.format_figure5)),
    Section("Figure 6", ("figure", "6"), experiments.figure6_grid,
            _computed(experiments.compute_figure6, experiments.format_figure6)),
    Section("Figure 7", ("figure", "7"), experiments.figure7_grid,
            _computed(experiments.compute_figure7, experiments.format_figure7)),
    Section("Figure 8", ("figure", "8"), experiments.figure8_grid,
            _computed(experiments.compute_figure8, experiments.format_figure8)),
    Section("Figure 9", ("figure", "9"), experiments.figure9_grid,
            _computed(experiments.compute_figure9, experiments.format_figure9)),
    Section("Table 4", ("table", "4"), experiments.table4_grid,
            _computed(experiments.compute_table4, experiments.format_table4)),
    Section("Ablation: placement", ("ablation", "placement"),
            experiments.placement_ablation_grid,
            _computed(experiments.compute_placement_ablation,
                      experiments.format_ablation)),
    Section("Ablation: relocation", ("ablation", "relocation"),
            experiments.relocation_ablation_grid,
            _computed(experiments.compute_relocation_ablation,
                      experiments.format_ablation)),
    Section("Ablation: replacement", ("ablation", "replacement"),
            experiments.replacement_ablation_grid,
            _computed(experiments.compute_replacement_ablation,
                      experiments.format_ablation)),
    Section("Extension: cluster-size", None, experiments.scaling_grid,
            _computed(experiments.compute_scaling, experiments.format_scaling)),
    Section("Extension: topology", None, experiments.topology_scaling_grid,
            _computed(experiments.compute_topology_scaling,
                      experiments.format_topology_scaling)),
    Section("Extension: directory", None, experiments.directory_scaling_grid,
            _computed(experiments.compute_directory_scaling,
                      experiments.format_directory_scaling)),
)

#: ``(command, name)`` -> the section that command prints.
_SECTION_COMMANDS = {s.command: s for s in SECTIONS if s.command is not None}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not (0 <= value < math.inf):
        raise argparse.ArgumentTypeError("must be a finite number >= 0")
    return value


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the simulation fan-out (default: 1)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "persistent result-store directory (default: "
            "$REPRO_STORE_DIR or ~/.cache/repro-rnuma)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="skip the on-disk result store (in-memory cache only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-attempt a crashed or timed-out job up to N more times "
            "with exponential backoff (default: 0)"
        ),
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job deadline; a job still running past it is reaped "
            "(the worker pool is recycled) and retried or failed"
        ),
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help=(
            "base retry delay, doubled per attempt with deterministic "
            "jitter (default: 0.5)"
        ),
    )


def _add_apps_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--apps", nargs="*", choices=workload_names(), default=None)


def _make_executor(args: argparse.Namespace) -> Executor:
    store = None
    if not args.no_store:
        root = Path(args.store) if args.store else default_store_dir()
        try:
            store = ResultStore(root)
        except OSError as exc:
            raise SystemExit(f"repro: cannot use result store {root}: {exc}")
    try:
        retry = RetryPolicy(
            retries=args.retries,
            job_timeout=args.job_timeout,
            backoff=args.backoff,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"repro: {exc}")
    return Executor(workers=args.jobs, store=store, retry=retry)


def _print_failure_table(failures: Sequence[JobFailure]) -> None:
    """The casualty report a failed sweep ends with (stderr)."""
    print(f"\n{len(failures)} job(s) permanently failed:", file=sys.stderr)
    print(
        f"  {'app':<10} {'protocol':<7} {'kind':<11} {'attempts':>8}  error",
        file=sys.stderr,
    )
    for f in failures:
        print(
            f"  {f.app:<10} {f.protocol:<7} {f.kind:<11} "
            f"{f.attempts:>8}  {f.error}",
            file=sys.stderr,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reactive NUMA (ISCA 1997) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the workload suite (Table 3)")

    topo_p = sub.add_parser(
        "topologies", help="show the interconnect topologies"
    )
    topo_p.add_argument(
        "--nodes",
        type=_positive_int,
        nargs="*",
        default=[4, 8, 16],
        help="node counts to tabulate hop statistics for (default: 4 8 16)",
    )

    run_p = sub.add_parser("run", help="simulate one application")
    run_p.add_argument("app", choices=workload_names())
    run_p.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOL_CONFIGS) + ["all"],
        default="all",
    )
    run_p.add_argument("--scale", type=_positive_float, default=1.0)
    run_p.add_argument(
        "--threshold",
        type=_positive_int,
        default=64,
        help="R-NUMA relocation threshold",
    )
    run_p.add_argument(
        "--topology",
        choices=topology_names(),
        default="uniform",
        help="interconnect topology (default: uniform, the paper's fabric)",
    )
    run_p.add_argument(
        "--link-latency",
        type=int,
        default=None,
        metavar="CYCLES",
        help="per-hop link latency on non-uniform topologies",
    )
    run_p.add_argument(
        "--link-occupancy",
        type=int,
        default=None,
        metavar="CYCLES",
        help="per-link busy time on non-uniform topologies",
    )
    run_p.add_argument(
        "--directory",
        choices=REPRESENTATIONS,
        default="fullmap",
        help="directory sharer-set representation (default: fullmap, exact)",
    )
    run_p.add_argument(
        "--dir-pointers",
        type=_positive_int,
        default=4,
        metavar="N",
        help="pointer slots for --directory limited (default: 4)",
    )
    run_p.add_argument(
        "--dir-overflow",
        choices=OVERFLOW_POLICIES,
        default="broadcast",
        help="limited-pointer overflow policy (default: broadcast)",
    )
    run_p.add_argument(
        "--dir-region",
        type=_positive_int,
        default=4,
        metavar="N",
        help="nodes per bit for --directory coarse (default: 4)",
    )
    run_p.add_argument(
        "--engine",
        choices=ENGINES,
        default="runahead",
        help="engine backend (default: runahead)",
    )
    run_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "write a Chrome-trace-event JSON coherence trace (open in "
            "Perfetto; with --protocol all, one file per protocol with "
            "the protocol name suffixed)"
        ),
    )
    run_p.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "write a JSONL counter time-series (suffixed per protocol "
            "like --trace)"
        ),
    )
    run_p.add_argument(
        "--trace-categories",
        nargs="+",
        choices=ObsParams.TRACE_CATEGORIES,
        default=None,
        metavar="CAT",
        help=(
            "trace event categories to keep (default: all of "
            + " ".join(ObsParams.TRACE_CATEGORIES)
            + ")"
        ),
    )
    run_p.add_argument(
        "--metrics-interval",
        type=_positive_int,
        default=100_000,
        metavar="CYCLES",
        help="simulated cycles between metrics samples (default: 100000)",
    )

    sub.add_parser(
        "directories", help="show the directory sharer-set representations"
    )

    sub.add_parser("engines", help="show the engine backends")

    ts_p = sub.add_parser(
        "trace-stats", help="inspect an application's compiled trace"
    )
    ts_p.add_argument("app", choices=workload_names())
    ts_p.add_argument("--scale", type=_positive_float, default=1.0)

    for command, help_text in (
        ("figure", "regenerate a paper figure"),
        ("table", "regenerate a paper table"),
        ("ablation", "run a design-choice ablation"),
    ):
        section_p = sub.add_parser(command, help=help_text)
        section_p.add_argument(
            "name", choices=[name for cmd, name in _SECTION_COMMANDS if cmd == command]
        )
        section_p.add_argument("--scale", type=_positive_float, default=1.0)
        if command == "table":
            section_p.set_defaults(apps=None)
        else:
            _add_apps_arg(section_p)
        _add_executor_args(section_p)

    rep_p = sub.add_parser(
        "reproduce",
        help="regenerate every figure and table in one deduplicated sweep",
    )
    rep_p.add_argument("--scale", type=_positive_float, default=1.0)
    _add_apps_arg(rep_p)
    rep_p.add_argument(
        "--engine",
        choices=("runahead",),
        default="runahead",
        help=(
            "selects nothing: a sweep always runs on runahead, the one "
            "production engine; the flag stays so scripts that pass "
            "--engine runahead keep working"
        ),
    )
    rep_p.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-time breakdown at the end of the sweep",
    )
    rep_p.add_argument(
        "--heartbeat",
        action="store_true",
        help="stream per-job progress to stderr as the sweep runs",
    )
    _add_executor_args(rep_p)

    store_p = sub.add_parser(
        "store", help="inspect and maintain the persistent result store"
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)

    def _add_store_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help=(
                "result-store directory (default: $REPRO_STORE_DIR or "
                "~/.cache/repro-rnuma)"
            ),
        )

    verify_p = store_sub.add_parser(
        "verify",
        help=(
            "fsck every entry; corrupt ones are moved to quarantine/ "
            "and the command exits nonzero"
        ),
    )
    _add_store_dir(verify_p)
    verify_p.add_argument(
        "--no-quarantine",
        action="store_true",
        help="report corrupt entries but leave them in place",
    )

    gc_p = store_sub.add_parser(
        "gc",
        help=(
            "remove stale-schema entries and old orphan .tmp files "
            "(fresh ones may belong to a live writer and are kept)"
        ),
    )
    _add_store_dir(gc_p)
    gc_p.add_argument(
        "--tmp-age",
        type=_non_negative_float,
        default=TMP_GC_AGE_S,
        metavar="SECONDS",
        help=(
            "minimum age before an orphan .tmp is considered dead "
            f"(default: {TMP_GC_AGE_S:g})"
        ),
    )

    stats_p = store_sub.add_parser(
        "stats", help="summarize the store directory"
    )
    _add_store_dir(stats_p)

    report_p = sub.add_parser(
        "report", help="summarize a trace or metrics file"
    )
    report_p.add_argument("file", help="a --trace or --metrics output file")
    report_p.add_argument(
        "--validate",
        action="store_true",
        help="also validate the file against its checked-in schema",
    )

    return parser


def _cmd_list() -> None:
    print(f"{'application':<12} {'problem':<42} paper input")
    for name, (_, problem, paper_input) in APPLICATIONS.items():
        print(f"{name:<12} {problem:<42} {paper_input}")


def _cmd_topologies(args: argparse.Namespace) -> None:
    print(f"{'topology':<9} description")
    for name, cls in TOPOLOGIES.items():
        print(f"{name:<9} {cls.description}")
    print()
    header = f"{'topology':<9} {'nodes':>5} {'links':>5} {'mean hops':>9} {'max hops':>8}"
    print(header)
    for name in TOPOLOGIES:
        for nodes in args.nodes:
            table = routing_table_for(name, nodes)
            print(
                f"{name:<9} {nodes:>5} {table.link_count:>5} "
                f"{table.mean_hops():>9.2f} {table.max_hops():>8}"
            )


def _cmd_directories() -> None:
    rows = (
        ("fullmap", "exact bitmask, one bit per node (the seed model)"),
        ("limited", "i owner pointers (--dir-pointers); overflow either "
                    "broadcasts or evicts (--dir-overflow)"),
        ("coarse", "one bit per --dir-region nodes; invalidations hit "
                   "whole regions"),
    )
    print(f"{'representation':<15} behavior")
    for name, text in rows:
        print(f"{name:<15} {text}")


def _cmd_engines() -> None:
    print(f"{'engine':<12} summary")
    for name, summary in ENGINES.items():
        print(f"{name:<12} {summary}")


def _run_config_overrides(args: argparse.Namespace, config):
    """Apply the interconnect/directory knobs of ``run`` to a config."""
    if args.topology != "uniform":
        config = replace(config, topology=args.topology)
    costs = config.costs
    if args.link_latency is not None:
        costs = replace(costs, link_latency=args.link_latency)
    if args.link_occupancy is not None:
        costs = replace(costs, link_occupancy=args.link_occupancy)
    if costs is not config.costs:
        config = replace(config, costs=costs)
    if args.directory != "fullmap":
        config = replace(
            config,
            directory=DirectoryParams(
                representation=args.directory,
                pointers=args.dir_pointers,
                overflow=args.dir_overflow,
                region_size=args.dir_region,
            ),
        )
    return config


def _suffixed_path(path: str, name: str, multi: bool) -> str:
    """``trace.json`` -> ``trace.rnuma.json`` when several protocols
    share one ``--trace``/``--metrics`` flag (each run gets its own
    file; a single-protocol run keeps the path verbatim)."""
    if not multi:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.{name}{p.suffix}" if p.suffix else f"{p.name}.{name}"))


def _run_obs_params(args: argparse.Namespace, name: str, multi: bool) -> ObsParams:
    """The ObsParams one ``run`` protocol leg should carry."""
    categories = (
        tuple(args.trace_categories)
        if args.trace_categories
        else ObsParams.TRACE_CATEGORIES
    )
    return ObsParams(
        trace_path=(
            _suffixed_path(args.trace, name, multi) if args.trace else None
        ),
        metrics_path=(
            _suffixed_path(args.metrics, name, multi) if args.metrics else None
        ),
        trace_categories=categories,
        metrics_interval=args.metrics_interval,
    )


def _cmd_run(args: argparse.Namespace) -> None:
    program = build_program(args.app, scale=args.scale)
    fabric = "" if args.topology == "uniform" else f" on {args.topology}"
    print(f"{args.app}: {program.scaled_input} "
          f"({program.total_accesses} accesses){fabric}\n")
    names = (
        list(_PROTOCOL_CONFIGS) if args.protocol == "all" else [args.protocol]
    )
    multi = len(names) > 1
    baseline = None
    for name in names:
        if name == "rnuma":
            config = base_rnuma_config(threshold=args.threshold)
        else:
            config = _PROTOCOL_CONFIGS[name]()
        config = _run_config_overrides(args, config)
        obs = _run_obs_params(args, name, multi)
        try:
            result = simulate(config, program, engine=args.engine, obs=obs)
        except OSError as exc:
            # Only the --trace and --metrics writers do I/O here.  One
            # that cannot write ends the command like an unusable
            # --store: one line, no traceback.
            raise SystemExit(
                f"repro: cannot write {exc.filename or 'run output'}: "
                f"{exc.strerror or exc}"
            )
        if baseline is None:
            baseline = result
        print(f"{name:<8} {result.exec_cycles:>12,} cycles "
              f"({result.normalized_to(baseline):.2f}x)  "
              f"refetches={result.total('refetches'):,} "
              f"relocations={result.total('relocations'):,}")
        for label, path in (("trace", obs.trace_path), ("metrics", obs.metrics_path)):
            if path:
                print(f"         {label} -> {path}", file=sys.stderr)


def _cmd_trace_stats(args: argparse.Namespace) -> None:
    """Per-CPU reference counts and the compiled-trace footprint."""
    space = AddressSpace()
    program = build_program(args.app, scale=args.scale)
    pages = program.pages_touched(space)
    runs = program.run_length_stats()
    print(f"{args.app}: {program.scaled_input or program.description}")
    print(f"  cpus            {program.cpu_count}")
    print(f"  accesses        {program.total_accesses:,}")
    print(f"  barriers        {program.barrier_count:,}")
    print(f"  pages touched   {len(pages):,}")
    print(f"  compiled size   {program.nbytes:,} bytes "
          f"(8 bytes/item, columnar)")
    print(f"  barrier-free runs {runs['runs']:,} "
          f"(mean {runs['mean_run_length']:,.0f} refs, "
          f"think {runs['mean_think_cycles']:.1f} cycles/ref)")
    print()
    print(f"  {'cpu':>4} {'references':>12} {'share':>7} {'think/ref':>10}")
    total = program.total_accesses or 1
    profile = program.per_cpu_profile()
    for cpu, count in enumerate(program.access_counts):
        _, think, _ = profile[cpu]
        per_ref = think / count if count else 0.0
        print(f"  {cpu:>4} {count:>12,} {count / total * 100:>6.1f}% "
              f"{per_ref:>10.1f}")


def _cmd_section(args: argparse.Namespace) -> None:
    section = _SECTION_COMMANDS[args.command, args.name]
    executor = _make_executor(args) if section.grid is not None else None
    print(section.render(args.scale, args.apps, executor))


def _cmd_store(args: argparse.Namespace) -> int:
    root = Path(args.store) if args.store else default_store_dir()
    if not root.is_dir():
        # Maintenance inspects a store; it must not create one.
        print(f"repro: no result store at {root}", file=sys.stderr)
        return 2
    try:
        store = ResultStore(root)
    except OSError as exc:
        raise SystemExit(f"repro: cannot open result store {root}: {exc}")
    if args.store_command == "verify":
        report = store.verify(quarantine=not args.no_quarantine)
        print(f"store: checked {report['checked']} entries under {store.root}")
        print(f"  ok            {report['ok']}")
        print(
            f"  stale schema  {report['stale_schema']}"
            + (" (run `store gc` to remove)" if report["stale_schema"] else "")
        )
        label = "corrupt" if args.no_quarantine else "quarantined"
        print(f"  {label:<13} {len(report['quarantined'])}")
        for item in report["quarantined"]:
            print(f"    {item['entry']}  {item['reason']}")
        return 1 if report["quarantined"] else 0
    if args.store_command == "gc":
        report = store.gc(tmp_max_age_s=args.tmp_age)
        print(
            f"store: removed {report['removed_stale_entries']} stale "
            f"entries and {report['removed_tmp']} orphan tmp files; "
            f"kept {report['kept_live_tmp']} fresh tmp files"
        )
        return 0
    stats = store.stats()
    print(f"store: {stats['root']} (schema v{stats['schema_version']})")
    print(f"  entries      {stats['entries']} ({stats['total_bytes']:,} bytes)")
    for version, count in sorted(stats["schema_versions"].items()):
        print(f"    schema {version:<8} {count}")
    print(f"  tmp files    {stats['tmp_files']}")
    print(f"  quarantined  {stats['quarantined']}")
    print(f"  manifest     {'yes' if stats['has_manifest'] else 'no'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.obs.report import report

    try:
        summary, errors = report(args.file, check=args.validate)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"repro: cannot report on {args.file}: {exc}")
    print(summary)
    if args.validate:
        if errors:
            print(f"\nschema violations ({len(errors)}):", file=sys.stderr)
            for error in errors[:20]:
                print(f"  {error}", file=sys.stderr)
            raise SystemExit(1)
        print("\nschema: valid")


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Full paper sweep: one deduplicated job set, one executor."""
    import time

    executor = _make_executor(args)
    if args.heartbeat:
        start = time.perf_counter()

        def _heartbeat(done: int, total: int, job, source: str) -> None:
            elapsed = time.perf_counter() - start
            print(
                f"  [{done:>4}/{total}] {elapsed:>7.1f}s "
                f"{job.app:<10} {job.config.protocol:<7} {source}",
                file=sys.stderr,
            )

        executor.progress = _heartbeat
    scale, apps = args.scale, args.apps

    # Enumerate every section's simulations up front so overlapping
    # configurations are submitted exactly once.
    jobs = [
        job
        for s in SECTIONS
        if s.grid is not None
        for job in grid_jobs(s.grid(scale, apps))
    ]
    unique = len({job.key for job in jobs})
    print(
        f"reproduce: {len(jobs)} simulations, {unique} unique after "
        f"dedup, {args.jobs} worker(s)"
        + ("" if executor.store is None else f", store={executor.store.root}"),
        file=sys.stderr,
    )

    # Sweep: the executor builds each program the first time one of
    # its jobs is dispatched (the "trace compile" row) and tracks store
    # I/O separately; the rest is simulation.  A SweepFailure here means
    # some jobs are permanently dead after their retry budget;
    # everything else completed and is cached/stored, so rendering
    # proceeds on the survivors.
    t0 = time.perf_counter()
    failures: List[JobFailure] = []
    try:
        executor.run(jobs)
    except SweepFailure as exc:
        failures = exc.failures
    compile_s = executor.build_seconds
    simulate_s = time.perf_counter() - t0 - executor.store_seconds - compile_s
    store_after_simulate = executor.store_seconds
    # The heartbeat tracks the sweep; the render phase's lookups are not
    # progress.
    executor.progress = None

    # Render.  All compute calls hit the warm executor, which re-reports
    # a permanently failed job without simulating it again.  A section
    # that needs a failed job, or whose render raises, becomes a skip
    # line; the rest of the report and the manifest are still written.
    render_failed = False

    def _render(section: Section) -> str:
        nonlocal render_failed
        try:
            return section.render(scale, apps, executor)
        except SweepFailure as exc:
            return (
                f"{section.label}: skipped — {len(exc.failures)} required "
                "job(s) permanently failed (see failure table)"
            )
        except Exception as exc:
            render_failed = True
            traceback.print_exc()
            return (
                f"{section.label}: skipped — render failed: "
                f"{type(exc).__name__}: {exc}"
            )

    t0 = time.perf_counter()
    sections = [_render(section) for section in SECTIONS]
    print("\n\n".join(sections))
    # Render-phase cache misses may hit the store too; keep that I/O in
    # the store row, not the render row.
    store_s = executor.store_seconds
    render_s = time.perf_counter() - t0 - (store_s - store_after_simulate)

    manifest = executor.write_manifest(
        jobs, extra={"command": "reproduce", "scale": scale}
    )
    if manifest is not None:
        print(f"reproduce: manifest -> {manifest}", file=sys.stderr)

    if args.profile:
        total = compile_s + simulate_s + store_s + render_s
        print("\nphase breakdown", file=sys.stderr)
        for name, seconds in (
            ("trace compile", compile_s),
            ("simulate", simulate_s),
            ("store read", executor.store_read_seconds),
            ("store write", executor.store_write_seconds),
            ("render", render_s),
        ):
            share = seconds / total * 100 if total else 0.0
            print(f"  {name:<14} {seconds:>8.2f}s {share:>5.1f}%", file=sys.stderr)
        simulated = [
            p for p in executor.job_profiles if p["source"] == "simulated"
        ]
        if simulated:
            reused = sum(p["source"] == "reused" for p in executor.job_profiles)
            slowest = sorted(
                simulated, key=lambda p: p["simulate_s"], reverse=True
            )[:5]
            print(
                f"\nslowest jobs ({len(simulated)} simulated, {reused} reused; "
                "queue = wait for a worker)",
                file=sys.stderr,
            )
            for p in slowest:
                print(
                    f"  {p['app']:<10} {p['protocol']:<7} "
                    f"sim {p['simulate_s']:>7.2f}s  "
                    f"queue {p['queue_wait_s']:>6.2f}s  "
                    f"store {p['store_read_s'] + p['store_write_s']:>6.3f}s",
                    file=sys.stderr,
                )

    if not (failures or render_failed):
        return 0
    hint = ""
    if failures:
        _print_failure_table(failures)
        # The store holds every finished job, so a rerun simulates
        # only the failed ones; no rerun mends a render.
        hint = "; run the same command again to re-run only the failed jobs"
    if executor.store is None:
        # Nothing was stored, so a rerun would simulate every job again.
        print("reproduce: incomplete; --no-store kept no results", file=sys.stderr)
    else:
        print(f"reproduce: partial results kept{hint}", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rc = 0
    try:
        if args.command == "list":
            _cmd_list()
        elif args.command == "topologies":
            _cmd_topologies(args)
        elif args.command == "directories":
            _cmd_directories()
        elif args.command == "engines":
            _cmd_engines()
        elif args.command == "run":
            _cmd_run(args)
        elif args.command == "trace-stats":
            _cmd_trace_stats(args)
        elif args.command in ("figure", "table", "ablation"):
            _cmd_section(args)
        elif args.command == "reproduce":
            rc = _cmd_reproduce(args)
        elif args.command == "store":
            rc = _cmd_store(args)
        elif args.command == "report":
            _cmd_report(args)
    except SweepFailure as exc:
        # figure/table/ablation sweeps propagate permanent job
        # failures here; reproduce handles its own (partial render).
        _print_failure_table(exc.failures)
        return 1
    except ConfigurationError as exc:
        # A configuration the chosen engine refuses (the reference
        # engine on a directory that can overflow) is a usage error.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
