"""The repository benchmark: the paper sweep, ``repro reproduce``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 25 --trace 0

Every workload is one closed-loop batch run of the same command: one
process submits the deduplicated job set of every figure, table,
ablation and extension (303 unique simulations at ``SCALE``) into an
empty store and waits for it.  The workloads differ only in how the
job set is served:

- ``sweep-cold``: ``--jobs 1`` (engine-bound);
- ``sweep-cold-par``: ``--jobs 2`` (pool dispatch).

Each sample runs in a fresh interpreter (``sweep.py``) with a fresh
store under ``.perfbench/`` in the checkout.  Samples repeat until
``--seconds`` have been spent, at least ``MIN_SAMPLES`` of them.  A
time is the fastest sample, memory the median.  With ``--trace 1`` the
run alternates untraced and traced samples and reports the per-layer
metrics of the traced ones (see ``tracing.py``).  Each traced sample is
followed by a traced replay of the same command on the store it just
filled, which is where the store's read path is measured.

Every sample is checked: the sweep must exit 0 with no failed job,
and print the same report and leave the same simulated totals as
``expected.json`` for the default seed, or as the run's first sample
for any other seed.  A sample that fails a check counts all its jobs
as failed.

The last stdout line is the JSON result: ``correct``, ``attempted``
and ``failed`` (jobs, summed over samples), and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

#: The reduced scale every workload runs at.  Below 0.1 the sweep does
#: not get shorter (the apps have minimum problem sizes), so 0.1 keeps
#: the paper's inputs as close as the time budget allows.
SCALE = 0.1
#: The production default engine, pinned so the benchmark does not
#: follow a change of the default.
ENGINE = "runahead"
#: The seed that gives the paper's inputs (each app's own default).
DEFAULT_SEED = 0

#: Workload name -> ``reproduce --jobs``.
WORKLOADS = {"sweep-cold": 1, "sweep-cold-par": 2}

#: Import-only interpreters started during set-up; every timed sample
#: adds one more ``setup_s`` sample.
SETUP_SAMPLES = 5
#: Untraced samples a run takes even when they overrun --seconds.
MIN_SAMPLES = 3
#: A run never starts a sample after this many seconds, so it ends well
#: inside its 180 s limit even when a traced sample is slow.
LAST_START_S = 100.0
SAMPLE_TIMEOUT_S = 170.0
#: Per-layer metrics taken from the replay on a filled store, not from
#: the cold sample (whose every store lookup misses).
REPLAY_METRICS = ("store.reads", "store.read_s", "store.read_ms_per_entry")


class BenchmarkError(Exception):
    """The benchmark cannot run here (not a sample failing a check)."""


def preflight() -> None:
    if os.environ.get("REPRO_FAULTS"):
        raise BenchmarkError(
            "REPRO_FAULTS is set; the benchmark measures fault-free sweeps"
        )
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchmarkError(f"no program source under {SRC}")


def child_env(pycache: Path) -> Dict[str, str]:
    """The samples' environment.  Bytecode is cached under the run's own
    ``pycache`` directory, so every run starts from the same state
    whatever the checkout or the caller's environment holds: one untimed
    import compiles, and the timed imports read the cache, as a
    user's installed copy would."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_STORE_DIR", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_child(spec: dict, env: Dict[str, str], trace: bool = False) -> Optional[dict]:
    """Run ``sweep.py`` with ``spec``; its JSON result, or None when it
    crashed or timed out."""
    argv = [sys.executable, str(HERE / "sweep.py"), json.dumps(spec)]
    if trace:
        argv.append("--trace")
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: sample timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(
            f"perfbench: sample exited {proc.returncode}\n{proc.stderr[-2000:]}",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def fastest(values: List[float]) -> float:
    return min(values) if values else 0.0


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def sample_problems(
    sample: Optional[dict], reference: Optional[dict], source: str
) -> List[str]:
    """Why ``sample`` fails the correctness check ([] when it passes).

    ``reference`` (named ``source`` in the messages) holds the report
    digest and simulated totals the sample must reproduce.
    """
    if sample is None:
        return ["sample crashed or timed out"]
    problems = []
    if sample["rc"] != 0:
        problems.append(f"reproduce exited {sample['rc']}: {sample.get('log', '')}")
    if sample["failures"]:
        problems.append(f"{sample['failures']} job(s) failed")
    if reference is not None:
        if sample["report_sha256"] != reference["report_sha256"]:
            problems.append(f"report digest differs from {source}")
        if sample["stats"] != reference["stats"]:
            problems.append(f"simulated totals differ from {source}")
    return problems


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = SCALE,
    apps: Optional[List[str]] = None,
    work_root: Path = ROOT / ".perfbench",
    expected: Optional[dict] = None,
) -> dict:
    """One benchmark run; returns the result object and, under
    ``info``, what the run saw (sample count, provenance, problems).

    ``expected`` pins the report digest and simulated totals; it
    defaults to ``expected.json`` for the default seed at ``SCALE``
    with every app.  Without a pin every sample must match the run's
    first sample.
    """
    preflight()
    if expected is None and seed == DEFAULT_SEED and not apps and scale == SCALE:
        expected = load_expected()
    work_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        return _run(workload, seed, seconds, trace, scale, apps, tmp, expected)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(workload, seed, seconds, trace, scale, apps, tmp, expected) -> dict:
    base = {
        "mode": "sweep",
        "jobs": WORKLOADS[workload],
        "scale": scale,
        "apps": apps,
        "engine": ENGINE,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
    }
    counter = itertools.count()

    def fresh(name: str) -> str:
        path = tmp / f"{name}-{next(counter)}"
        path.mkdir()
        return str(path)

    # -- set-up (untimed) ---------------------------------------------
    env = child_env(Path(fresh("pycache")))
    setup_samples = []
    provenance = None
    # The first import compiles the bytecode cache and is not a sample.
    for i in range(SETUP_SAMPLES + 1):
        got = run_child({**base, "mode": "import", "provenance": i == 0}, env)
        if got is None:
            raise BenchmarkError("cannot import repro.cli")
        if i:
            setup_samples.append(got["import_s"])
        provenance = provenance or got.get("provenance")

    samples: List[Optional[dict]] = []

    def sample(store: str, spool: Optional[str] = None) -> Optional[dict]:
        spec = {**base, "store": store}
        if spool:
            spec["spool"] = spool
        got = run_child(spec, env, trace=bool(spool))
        samples.append(got)
        return got

    # -- measured samples ---------------------------------------------
    # An untraced run takes at least MIN_SAMPLES samples and may overrun
    # --seconds by one.  A traced iteration (an untraced sample, a
    # traced one and its replay) costs about three untraced samples, so
    # it starts only if it is likely to fit.
    untraced: List[dict] = []
    #: (traced sample, traced replay on the store it filled) pairs.
    traced: List[Tuple[dict, dict]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        got = sample(fresh("store"))
        if got is not None:
            untraced.append(got)
            setup_samples.append(got["import_s"])
        if trace:
            store = fresh("store")
            got = sample(store, fresh("spool"))
            replay = sample(store, fresh("spool")) if got is not None else None
            if replay is not None:
                traced.append((got, replay))
        now = time.perf_counter()
        elapsed = now - start
        if elapsed >= LAST_START_S:
            break
        if trace:
            if elapsed + (now - began) > seconds:
                break
        elif elapsed >= seconds and len(untraced) >= MIN_SAMPLES:
            break

    # -- correctness ---------------------------------------------------
    first = next((s for s in samples if s), None)
    if expected is not None:
        reference, source = expected, "expected.json"
    else:
        reference, source = first, "the run's first sample"
    problems: List[str] = []
    attempted = failed = 0
    for got in samples:
        jobs = (got or first or {}).get("unique_jobs", 1)
        found = sample_problems(got, reference, source)
        attempted += jobs
        if found:
            failed += jobs
            problems += found
    correct = not problems and attempted > 0

    # -- metrics -------------------------------------------------------
    if trace:
        layers = [
            {**cold["layers"], **{k: replay["layers"][k] for k in REPLAY_METRICS}}
            for cold, replay in traced
        ]
        values = {}
        for name in layers[0] if layers else ():
            if name == "unmapped":
                continue
            values[name] = median([t[name] for t in layers])
        stats = (first or {"stats": {}})["stats"]
        for name, value in stats.items():
            values[f"stats.{name}"] = value
        plain = median([s["sweep_s"] for s in untraced])
        values["trace.overhead_share"] = (
            median([cold["sweep_s"] for cold, _ in traced]) / plain - 1.0
            if plain
            else 0.0
        )
        unmapped = sorted({p for t in layers for p in t["unmapped"]})
    else:
        # Every sample does the same deterministic work and host noise
        # only adds time, so a time is the run's fastest sample: a
        # median follows the share of slow host seconds the run
        # happened to get (see README.md).
        values = {
            "sweep_s": fastest([s["sweep_s"] for s in untraced]),
            "cpu_s": fastest([s["cpu_s"] for s in untraced]),
            "setup_s": fastest(setup_samples),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in untraced]),
        }
        unmapped = []
    units = declared_units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "workload": workload,
            "seed": seed,
            "scale": scale,
            "engine": ENGINE,
            "workers": WORKLOADS[workload],
            "nproc": os.cpu_count(),
            "samples": len(untraced),
            "sweep_s_samples": [s["sweep_s"] for s in untraced],
            "sweep_s_median": median([s["sweep_s"] for s in untraced]),
            "traced_samples": len(traced),
            "setup_samples": len(setup_samples),
            "report_sha256": first["report_sha256"] if first else None,
            "stats": first["stats"] if first else None,
            "unmapped_packages": unmapped,
            "problems": problems,
            "provenance": provenance,
        },
    }


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[section]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = result.pop("info")
    for problem in info["problems"]:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
