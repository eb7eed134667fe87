"""One measured ``repro reproduce`` call in a fresh interpreter.

``run.py`` starts this script once per sample, so the registry's
program cache and every ``lru_cache`` start cold, exactly as for a user
typing ``python -m repro reproduce``.  The only argument is a JSON
spec; the last stdout line is a JSON object with the measurements.

Modes:

- ``import``: time ``import repro.cli`` and exit (a ``setup_s``
  sample); with ``"provenance": true`` also return the provenance block.
- ``sweep``: time the import, then one ``reproduce`` call into
  ``spec["store"]``; then, untimed, read the run manifest and the
  stored results back for the correctness check.

With a second argument ``--trace`` the call runs under
:mod:`tracing`'s wrappers, which are installed before ``repro.cli`` is
imported.  Otherwise only ``sys`` and ``time`` are imported before the
timed import, so the standard-library modules ``repro`` pulls in are
charged to it.
"""

import sys
import time


def main() -> int:
    traced = "--trace" in sys.argv[2:]
    if not traced:
        t0 = time.perf_counter()
        import repro.cli

        import_s = time.perf_counter() - t0

    import contextlib
    import hashlib
    import io
    import json
    import resource
    from pathlib import Path

    spec = json.loads(sys.argv[1])
    if spec.get("seed", spec["default_seed"]) != spec["default_seed"]:
        reseed_apps(spec["seed"])
    tracer = None
    if traced:
        import tracing

        tracer = tracing.LayerTracer(Path(spec["spool"]))
        tracer.install()
        t0 = time.perf_counter()
        import repro.cli

        import_s = time.perf_counter() - t0

    out = {"import_s": import_s}
    if spec["mode"] == "import":
        if spec.get("provenance"):
            from repro.obs.provenance import provenance_block

            out["provenance"] = provenance_block()
        print(json.dumps(out))
        return 0

    store = Path(spec["store"])
    argv = [
        "reproduce",
        "--scale", repr(spec["scale"]),
        "--jobs", str(spec["jobs"]),
        "--engine", spec["engine"],
        "--store", str(store),
    ]
    if spec.get("apps"):
        argv += ["--apps", *spec["apps"]]

    report, log = io.StringIO(), io.StringIO()
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(log):
        rc = repro.cli.main(argv)
    sweep_s = time.perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    # Pool workers are joined by the executor before main() returns,
    # so RUSAGE_CHILDREN holds all of their CPU time and peak RSS.
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    text = report.getvalue()
    manifest = json.loads((store / "run_manifest.json").read_text())
    out.update(
        sweep_s=sweep_s,
        cpu_s=(
            self_after.ru_utime - self_before.ru_utime
            + self_after.ru_stime - self_before.ru_stime
            + children.ru_utime + children.ru_stime
        ),
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=max(self_after.ru_maxrss, children.ru_maxrss) / 1024.0,
        rc=rc,
        report_sha256=hashlib.sha256(text.encode()).hexdigest(),
        unique_jobs=manifest["unique_jobs"],
        failures=len(manifest["failures"]),
        stats=stored_stats(store),
    )
    if rc != 0:
        out["log"] = log.getvalue()[-2000:]
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


def reseed_apps(seed: int) -> None:
    """Regenerate every app from a seed derived from ``seed`` and the
    app name, through the app module's own ``build(..., seed=)``.

    Compiled programs are built in this process and shipped to pool
    workers inside the job payload, so patching the registry here
    reaches every simulation of the sweep.
    """
    import functools
    import hashlib

    from repro.workloads.registry import APPLICATIONS

    for name, (build, description, paper_input) in list(APPLICATIONS.items()):
        digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
        APPLICATIONS[name] = (
            functools.partial(build, seed=int.from_bytes(digest[:4], "big")),
            description,
            paper_input,
        )


#: Simulated counters summed over every stored result; a host-speed
#: change must leave all of them identical.
STAT_COUNTERS = (
    "l1_misses",
    "remote_fetches",
    "refetches",
    "page_faults",
    "relocations",
    "invalidations_sent",
)


def stored_stats(store) -> dict:
    """Totals of ``STAT_COUNTERS`` and ``exec_cycles`` over the result
    entries in ``store`` (64-hex-digit ``.json`` names)."""
    import json
    import re

    entry = re.compile(r"[0-9a-f]{64}\.json\Z")
    totals = dict.fromkeys(("exec_cycles_total",) + STAT_COUNTERS, 0)
    for path in store.iterdir():
        if not entry.match(path.name):
            continue
        result = json.loads(path.read_text())["result"]
        totals["exec_cycles_total"] += result["exec_cycles"]
        for node in result["stats"]["nodes"]:
            for name in STAT_COUNTERS:
                totals[name] += node[name]
    return totals


if __name__ == "__main__":
    sys.exit(main())
