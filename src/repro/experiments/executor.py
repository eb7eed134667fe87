"""Parallel experiment execution with a persistent on-disk result store.

The figure/table modules declare their simulations as grids of
:class:`Job` values (:func:`repro.experiments.runner.run_grid`) and
hand each whole grid to an :class:`Executor`, which:

1. deduplicates jobs by :func:`repro.experiments.runner.run_key`
   (the ideal baseline and base CC/S/R systems recur across figures);
2. satisfies what it can from its in-memory cache (a dict it owns)
   and its :class:`ResultStore` (JSON-per-key files under a cache
   directory);
3. groups the rest with the jobs they differ from only in fields a
   proven rule can free (:mod:`repro.experiments.reuse`) and runs them
   in one pass of a *supervised* dispatch loop: the tightest pending
   job of every group is queued at once, and as each job resolves its
   group answers every member that a result proves identical and
   queues its next pending job.  Every attempt is wrapped in an
   outcome envelope, so one crashing or hanging job can never abort
   the sweep.  The loop fans out over ``workers`` processes, which
   push each finished attempt back to it; with one slot and no
   per-job deadline there is nothing to overlap or preempt, so each
   attempt runs in this process instead;
4. writes fresh and answered results back to both layers as each job
   resolves, each under its own key with its own config.

:meth:`Executor.run_app` (one job) is a cache lookup in front of the
same :meth:`Executor.run`.

Simulations are deterministic, so a parallel run produces bit-identical
results to a serial one, and a second ``python -m repro reproduce``
against a warm store does near-zero simulation work.

Failure model
-------------
Each job owns an attempt budget (:class:`repro.common.params.RetryPolicy`):

- a **crash** (any exception in the attempt body, including injected
  ones) consumes an attempt and is retried after a deterministic
  exponential backoff (:func:`backoff_delay` — jitter is derived from
  the run key, no global random state);
- a **hang** is detected by the per-job deadline; the pool is
  terminated and rebuilt (the only way to reclaim a stuck worker
  process), the hung job is charged an attempt, and in-flight innocent
  bystanders are re-dispatched *without* being charged.

A job whose budget is spent becomes a :class:`JobFailure`; the sweep
keeps going (or aborts at once under ``fail_fast``), partial results
stay cached and stored, and :meth:`Executor.run` raises
:class:`SweepFailure` at the end so callers must notice.  Failures land
in the run manifest's ``failures`` section, which ``reproduce
--resume`` replays.

Store invalidation is by schema version: :data:`STORE_SCHEMA_VERSION`
participates in the key hash *and* is checked in the payload, so
bumping it (whenever the simulator's timing or counters change
meaning) orphans every stale entry.  Entries additionally carry a
``payload_sha256`` integrity hash, verified on every load and fscked
in bulk by ``python -m repro store verify``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import sys
import tempfile
import time
import traceback as traceback_module
from collections import deque
from contextlib import closing
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import count
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import FaultInjected, ReproError
from repro.common.params import (
    RetryPolicy,
    SystemConfig,
    config_from_dict,
    config_to_dict,
)
from repro.experiments import reuse
from repro.experiments.runner import Job
from repro.faults import injection
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.workloads.registry import build_program

#: Bump whenever stored results become incomparable with fresh ones
#: (engine timing changes, counter semantics, serialization layout).
#: v2: L1 write-back network contention is charged at the current cycle
#: instead of time zero.
#: v3: configuration identity grew the interconnect-topology knobs
#: (SystemConfig.topology, CostParams.link_latency/link_occupancy);
#: pre-topology entries no longer match any run key.
#: v4: configuration identity grew the directory-representation knobs
#: (SystemConfig.directory) and NodeStats grew ``invalidations_sent``;
#: pre-directory entries no longer match any run key.
#: v5: configuration identity grew the engine-backend selector
#: (SystemConfig.engine); pre-engine entries no longer match any run key.
#: v6: entries carry a ``payload_sha256`` integrity hash, required on
#: load — pre-integrity entries would otherwise be silently
#: re-simulated forever; ``store gc`` removes them instead.
#: v7: the engine backend left the configuration (and so the run key):
#: the backends are bit-identical, so one entry serves them all.  The
#: key is derived from every compared ``SystemConfig`` field.
STORE_SCHEMA_VERSION = 7

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_STORE_DIR"

#: File name of the per-sweep manifest written next to the results.
MANIFEST_NAME = "run_manifest.json"

#: Subdirectory corrupt entries are quarantined into by ``store verify``.
QUARANTINE_DIR = "quarantine"

#: Default age below which an orphan ``.tmp`` is presumed to belong to
#: a live concurrent writer and must not be garbage-collected.
TMP_GC_AGE_S = 3600.0

#: Ceiling on any single computed backoff delay.
_BACKOFF_CAP_S = 30.0


def default_store_dir() -> Path:
    """Where ``python -m repro reproduce`` keeps results by default."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-rnuma").expanduser()


@dataclass
class JobFailure:
    """A job that permanently failed during a sweep.

    Carries everything the failure table prints, plus the full config
    dict so ``reproduce --resume`` can rebuild and re-run the exact
    job (:func:`job_from_failure`) from the manifest alone.
    """

    key: str  #: ``repr(run_key(...))`` — matches stored-entry keys.
    app: str
    scale: float
    protocol: str
    kind: str  #: ``"crash"`` or ``"timeout"``.
    attempts: int
    error: str  #: one-line cause (exception repr, or the deadline).
    traceback: str  #: full worker traceback ("" for timeouts).
    config: Dict[str, Any]  #: :func:`config_to_dict` payload for resume.

    def to_json_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "JobFailure":
        # Records written while the engine was part of a job carry an
        # ``engine`` entry; the job it describes is the same without it.
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def job_from_failure(failure: JobFailure) -> Job:
    """Rebuild the runnable :class:`Job` a failure record describes."""
    return Job(
        app=failure.app,
        config=config_from_dict(failure.config),
        scale=failure.scale,
    )


class SweepFailure(ReproError):
    """One or more jobs of a sweep permanently failed.

    Raised by :meth:`Executor.run` *after* every other job completed
    (or immediately under ``fail_fast``).  All partial results remain
    in the cache and store; ``failures`` lists the casualties.
    """

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures: List[JobFailure] = list(failures)
        heads = ", ".join(
            f"{f.app}/{f.protocol} ({f.kind}, {f.attempts} attempt(s))"
            for f in self.failures[:4]
        )
        if len(self.failures) > 4:
            heads += f", ... {len(self.failures) - 4} more"
        super().__init__(f"{len(self.failures)} sweep job(s) failed: {heads}")


def backoff_delay(policy: RetryPolicy, key: Tuple, attempt: int) -> float:
    """Delay before re-attempting a job, deterministic per (key, attempt).

    Exponential in the attempt number, with jitter in [0.5x, 1.5x)
    derived from a hash of the run key — so concurrent retries of
    different jobs de-correlate without any module-level ``random``
    state, and a re-run of the same sweep backs off identically.
    """
    if policy.backoff <= 0 or attempt < 1:
        return 0.0
    digest = hashlib.sha256(repr((key, attempt)).encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return min(policy.backoff * (2.0 ** (attempt - 1)) * jitter, _BACKOFF_CAP_S)


def _job_payload(job: Job) -> Tuple[SystemConfig, object]:
    """What a worker needs to run ``job`` without regenerating anything:
    the config and the compiled program — packed trace columns (8 bytes
    per reference, cheap to pickle) with the first-touch map and the
    per-CPU profile already memoized on it.

    Generation and placement happen once in the parent — the registry
    cache dedups across the protocols of a sweep — so workers do pure
    simulation (the engine trusts a compiled program's barrier
    validation, so there is no per-run validation pass either).
    """
    program = build_program(
        job.app, machine=job.config.machine, space=job.config.space, scale=job.scale
    )
    # Warm the memoized placement map and profile so they ship inside
    # the pickle instead of being rescanned by every attempt.
    program.first_touch_homes(job.config.machine, job.config.space)
    program.per_cpu_profile()
    return (job.config, program)


def _run_supervised(payload: Tuple) -> Tuple:
    """The attempt body — the executor's one call to ``simulate`` — in
    a pool worker or in process (top level so it pickles under every
    multiprocessing start method), wrapped in an outcome envelope:

    ``(True, result, simulate_seconds, queue_wait_seconds)`` on
    success, ``(False, (kind, error, traceback), 0.0, queue_wait)``
    otherwise — a worker *returns* its failure instead of raising, so
    the pool never sees an exception and the supervisor decides what
    to do with it.

    ``queue_wait`` is measured against the submission wall-clock stamp
    the parent packed into the payload; ``time.time()`` (not
    ``perf_counter``) because the two readings come from different
    processes.  ``faults_spec`` travels in the payload too: injection
    must not depend on environment inheritance across start methods.
    """
    config, program, submitted_at, faults_spec, app, index, attempt = payload
    queue_wait = max(0.0, time.time() - submitted_at)
    try:
        injection.maybe_hang(
            "worker-hang", spec=faults_spec, app=app, index=index, attempt=attempt
        )
        injection.maybe_crash(
            "worker-raise", spec=faults_spec, app=app, index=index, attempt=attempt
        )
        t0 = time.perf_counter()
        result = simulate(config, program)
        return (True, result, time.perf_counter() - t0, queue_wait)
    except Exception as exc:
        return (
            False,
            (
                "crash",
                f"{type(exc).__name__}: {exc}",
                traceback_module.format_exc(),
            ),
            0.0,
            queue_wait,
        )


def _post(completions: SimpleQueue, index: int, submission: int, outcome: Any) -> None:
    """Completion callback of one submitted attempt (success and error
    alike): put ``(index, submission, envelope)`` on the supervisor's
    queue.  An error delivery is pool plumbing — the attempt body never
    raises — such as a result that would not pickle, so it becomes a
    ``crash`` envelope of that job."""
    if isinstance(outcome, BaseException):
        outcome = (
            False,
            ("crash", f"{type(outcome).__name__}: {outcome}", ""),
            0.0,
            0.0,
        )
    completions.put((index, submission, outcome))


class _InProcessPool:
    """The stand-in for ``multiprocessing.Pool`` when the dispatch loop
    has one slot and no deadline: ``apply_async`` runs the attempt and
    calls its completion callback at once, so there is no worker
    process to feed and nothing to wait for."""

    def apply_async(
        self, fn: Callable, args: Tuple, callback: Callable, error_callback: Callable
    ) -> None:
        callback(fn(*args))

    def terminate(self) -> None:
        """Nothing runs in the background, so nothing is stopped."""

    join = terminate


def payload_checksum(result_payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical (sorted-key) JSON of a result payload
    — the integrity hash stored as ``payload_sha256`` in every entry."""
    return hashlib.sha256(
        json.dumps(result_payload, sort_keys=True).encode()
    ).hexdigest()


def _atomic_write_json(root: Path, path: Path, payload: Any, **dump_kwargs) -> None:
    """Temp file + rename so a reader never observes a torn write.

    A :class:`FaultInjected` escaping here is a *simulated writer
    death* (``crash-before-rename``): the orphan temp file is left
    behind on purpose — exactly what a crashed real writer leaves, and
    what the age-gated ``store gc`` exists to clean up.
    """
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, **dump_kwargs)
        injection.maybe_crash("crash-before-rename")
        os.replace(tmp, path)
    except FaultInjected:
        raise
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """JSON-per-key persistent result store.

    Each entry is one file named by the SHA-256 of
    ``(schema_version, run_key)``; the payload repeats both so loads can
    reject version mismatches and (vanishingly unlikely) hash
    collisions, and carries ``payload_sha256`` — an integrity hash over
    the result payload, verified on every load so a corrupt entry is
    *detected*, never silently trusted.  Writes go through a temp file
    + rename so an interrupted run never leaves a truncated entry.

    Besides ``load``/``save``, the store can fsck itself:

    - :meth:`verify` classifies every entry and quarantines corrupt
      ones into ``quarantine/`` (instead of silently ignoring them);
    - :meth:`gc` removes stale-schema entries and *old* orphan
      ``.tmp`` files (age-gated so live concurrent writers are never
      clobbered);
    - :meth:`stats` summarizes the directory.
    """

    def __init__(
        self, root: Path, schema_version: int = STORE_SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.root.mkdir(parents=True, exist_ok=True)

    _ENTRY_STEM = re.compile(r"[0-9a-f]{64}\Z")

    def path_for(self, job: Job) -> Path:
        digest = hashlib.sha256(
            repr((self.schema_version, job.key)).encode()
        ).hexdigest()
        return self.root / f"{digest}.json"

    def _entry_paths(self) -> Iterator[Path]:
        """Result entries only: 64-hex-digest ``.json`` names.  The run
        manifest (and any future non-entry ``*.json``) never counts as
        a stored result."""
        for path in self.root.glob("*.json"):
            if self._ENTRY_STEM.match(path.stem):
                yield path

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def load(self, job: Job) -> Optional[SimulationResult]:
        """The stored result for ``job``, or None if absent/stale/corrupt."""
        return self._check(self.path_for(job), job)[1]

    def save(self, job: Job, result: SimulationResult) -> None:
        result_payload = result.to_json_dict()
        payload = {
            "schema_version": self.schema_version,
            "key": repr(job.key),
            "app": job.app,
            "scale": job.scale,
            "payload_sha256": payload_checksum(result_payload),
            "result": result_payload,
        }
        path = self.path_for(job)
        if injection.should_inject("store-torn-write", app=job.app):
            # Simulated non-atomic filesystem: half the payload lands
            # in the final path.  Detected on load (checksum/JSON) and
            # quarantined by ``store verify``.
            data = json.dumps(payload, sort_keys=True)
            path.write_text(data[: max(1, len(data) // 2)], encoding="utf-8")
            return
        # Unique temp name per writer: concurrent processes saving the
        # same key must not truncate each other mid-write.
        _atomic_write_json(self.root, path, payload, sort_keys=True)

    # -- integrity -----------------------------------------------------

    def classify_entry(self, path: Path) -> str:
        """Why an entry is (un)usable: ``"ok"``, ``"stale-schema"``, or
        a corruption reason (``"corrupt-json"``, ``"missing-checksum"``,
        ``"checksum-mismatch"``, ``"invalid-result"``, ``"unreadable"``)."""
        return self._check(path)[0]

    def _check(
        self, path: Path, job: Optional[Job] = None
    ) -> Tuple[str, Optional[SimulationResult]]:
        """``(reason, result)`` for the entry at ``path``: the
        :meth:`classify_entry` reason, and the result when it is
        ``"ok"``.  Loading for ``job`` also arms the
        ``store-read-corruption`` point and rejects an entry stored
        under another key (a hash collision) as ``"key-mismatch"``."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return "unreadable", None
        if job is not None and injection.should_inject(
            "store-read-corruption", app=job.app
        ):
            text = text[: max(1, len(text) // 2)]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return "corrupt-json", None
        if not isinstance(payload, dict):
            return "corrupt-json", None
        if payload.get("schema_version") != self.schema_version:
            return "stale-schema", None
        if job is not None and payload.get("key") != repr(job.key):
            return "key-mismatch", None
        if "payload_sha256" not in payload:
            return "missing-checksum", None
        if payload["payload_sha256"] != payload_checksum(payload.get("result", {})):
            return "checksum-mismatch", None
        try:
            return "ok", SimulationResult.from_json_dict(payload["result"])
        except (KeyError, TypeError, ValueError, ReproError):
            # ReproError covers config validation rejecting tampered
            # payloads (e.g. a negative node count).
            return "invalid-result", None

    def verify(self, quarantine: bool = True) -> Dict[str, Any]:
        """Fsck every entry; corrupt ones move to ``quarantine/``.

        Stale-schema entries are *reported but left alone* (they are
        well-formed history, and :meth:`gc`'s job); corruption —
        unparseable JSON, a missing or mismatching integrity hash, a
        result payload that no longer deserializes — is quarantined so
        it can be diagnosed instead of being silently re-simulated
        forever.  Returns a report dict with per-reason counts.
        """
        report: Dict[str, Any] = {
            "checked": 0,
            "ok": 0,
            "stale_schema": 0,
            "quarantined": [],
            "by_reason": {},
        }
        for path in sorted(self._entry_paths()):
            report["checked"] += 1
            reason = self.classify_entry(path)
            if reason == "ok":
                report["ok"] += 1
                continue
            if reason == "stale-schema":
                report["stale_schema"] += 1
                continue
            report["by_reason"][reason] = report["by_reason"].get(reason, 0) + 1
            if quarantine:
                self.quarantine_dir.mkdir(exist_ok=True)
                os.replace(path, self.quarantine_dir / path.name)
            report["quarantined"].append({"entry": path.name, "reason": reason})
        return report

    def gc(self, tmp_max_age_s: float = TMP_GC_AGE_S) -> Dict[str, int]:
        """Remove stale-schema entries and *old* orphan ``.tmp`` files.

        Temp files younger than ``tmp_max_age_s`` are presumed to
        belong to a live concurrent writer (a save between mkstemp and
        rename) and are kept — deleting one would crash the writer's
        rename and lose its result.
        """
        removed_stale = 0
        for path in list(self._entry_paths()):
            if self.classify_entry(path) == "stale-schema":
                try:
                    path.unlink()
                except OSError:
                    continue
                removed_stale += 1
        removed_tmp = kept_tmp = 0
        now = time.time()
        for orphan in self.root.glob("*.tmp"):
            try:
                age = now - orphan.stat().st_mtime
            except OSError:
                continue  # completed (renamed away) concurrently
            if age >= tmp_max_age_s:
                try:
                    orphan.unlink()
                except OSError:
                    continue
                removed_tmp += 1
            else:
                kept_tmp += 1
        return {
            "removed_stale_entries": removed_stale,
            "removed_tmp": removed_tmp,
            "kept_live_tmp": kept_tmp,
        }

    def stats(self) -> Dict[str, Any]:
        """Entry/byte counts, schema-version census, tmp + quarantine."""
        entries = 0
        total_bytes = 0
        versions: Dict[str, int] = {}
        for path in self._entry_paths():
            entries += 1
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            total_bytes += len(text)
            try:
                version = json.loads(text).get("schema_version")
            except (json.JSONDecodeError, AttributeError):
                version = "corrupt"
            versions[str(version)] = versions.get(str(version), 0) + 1
        quarantined = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "schema_version": self.schema_version,
            "entries": entries,
            "total_bytes": total_bytes,
            "schema_versions": versions,
            "tmp_files": sum(1 for _ in self.root.glob("*.tmp")),
            "quarantined": quarantined,
            "has_manifest": self.manifest_path.exists(),
        }

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The last sweep's ``run_manifest.json``, or None."""
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def write_manifest_payload(self, payload: Dict[str, Any]) -> Path:
        _atomic_write_json(
            self.root, self.manifest_path, payload, indent=2, sort_keys=True
        )
        return self.manifest_path

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> None:
        """Empty the store: result entries, *old* orphan temp files,
        and the run manifest.

        The manifest goes too — by decision, not accident: it is the
        census of a sweep whose results this call just deleted, and a
        stale manifest would make ``reproduce --resume`` replay
        failures against an empty store as if the rest still existed.
        Fresh ``.tmp`` files are kept (the same live-writer age gate as
        :meth:`gc`), and ``quarantine/`` is kept as diagnostic
        evidence until explicitly removed.
        """
        for path in list(self._entry_paths()):
            path.unlink()
        self.gc()
        try:
            self.manifest_path.unlink()
        except OSError:
            pass


class Executor:
    """Runs job sets across worker processes, backed by cache + store."""

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        progress: Optional[Callable[[int, int, Job, str], None]] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: Results by run key: fresh simulations and store hits.
        self.cache: Dict[Tuple, SimulationResult] = {}
        self.store = store
        #: Failure policy: per-job retries, deadline, backoff, fail-fast.
        self.retry = retry if retry is not None else RetryPolicy()
        #: Cumulative wall time spent reading / writing the on-disk
        #: store, split by direction so a profile can tell a cold sweep
        #: (write-heavy) from a warm replay (read-heavy).
        self.store_read_seconds = 0.0
        self.store_write_seconds = 0.0
        #: Cumulative wall time spent building job payloads: trace
        #: generation, packing and placement, once per program.
        self.build_seconds = 0.0
        #: One record per job :meth:`run`/:meth:`run_app` resolved:
        #: ``{app, protocol, source, queue_wait_s, simulate_s,
        #: store_read_s, store_write_s}`` where ``source`` is
        #: ``cache`` / ``store`` / ``simulated`` / ``reused`` /
        #: ``failed``.
        self.job_profiles: List[Dict[str, Any]] = []
        #: Optional heartbeat, called as ``progress(done, total, job,
        #: source)`` after every unique job resolves during :meth:`run`.
        #: A raising callback is disabled after one warning — user
        #: telemetry must never abort a sweep.
        self.progress = progress
        self._progress_warned = False
        #: Every :class:`JobFailure` this executor has recorded, in
        #: failure order (what the manifest's ``failures`` section and
        #: the CLI failure table show).
        self.failures: List[JobFailure] = []
        #: key-repr -> failure, so a later :meth:`run` over an
        #: overlapping job set (the render phase) re-reports the
        #: failure instantly instead of re-simulating a known-bad job.
        self._failed: Dict[str, JobFailure] = {}

    @property
    def store_seconds(self) -> float:
        """Total store wall time (read + write), kept for callers that
        profile at phase granularity."""
        return self.store_read_seconds + self.store_write_seconds

    @property
    def failed_keys(self) -> frozenset:
        """``repr(run_key)`` of every permanently failed job so far."""
        return frozenset(self._failed)

    # -- lookup layers -------------------------------------------------

    def _lookup(self, job: Job) -> Optional[SimulationResult]:
        """Cache, then store (promoting store hits into the cache)."""
        result = self.cache.get(job.key)
        if result is not None:
            return result
        if self.store is not None:
            t0 = time.perf_counter()
            result = self.store.load(job)
            self.store_read_seconds += time.perf_counter() - t0
            if result is not None:
                self.cache[job.key] = result
        return result

    def _insert(self, job: Job, result: SimulationResult) -> None:
        self.cache[job.key] = result
        if self.store is not None:
            t0 = time.perf_counter()
            self.store.save(job, result)
            self.store_write_seconds += time.perf_counter() - t0

    def _profile(
        self,
        job: Job,
        source: str,
        queue_wait_s: float = 0.0,
        simulate_s: float = 0.0,
        store_read_s: float = 0.0,
        store_write_s: float = 0.0,
    ) -> None:
        self.job_profiles.append(
            {
                "app": job.app,
                "protocol": job.config.protocol,
                "source": source,
                "queue_wait_s": queue_wait_s,
                "simulate_s": simulate_s,
                "store_read_s": store_read_s,
                "store_write_s": store_write_s,
            }
        )

    def _notify(self, done: int, total: int, job: Job, source: str) -> None:
        """Fire the progress heartbeat, disarming it on the first
        exception: a broken user callback gets one warning, never a
        broken sweep."""
        if self.progress is None:
            return
        try:
            self.progress(done, total, job, source)
        except Exception as exc:
            self.progress = None
            if not self._progress_warned:
                self._progress_warned = True
                print(
                    "repro: progress callback raised "
                    f"{type(exc).__name__}: {exc} — heartbeat disabled "
                    "for the rest of the sweep",
                    file=sys.stderr,
                )

    def _failure(
        self, job: Job, attempts: int, kind: str, error: str, traceback: str
    ) -> JobFailure:
        return JobFailure(
            key=repr(job.key),
            app=job.app,
            scale=job.scale,
            protocol=job.config.protocol,
            kind=kind,
            attempts=attempts,
            error=error,
            traceback=traceback,
            config=config_to_dict(job.config),
        )

    # -- execution -----------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> List[SimulationResult]:
        """Run every job, reusing cache/store; results in input order.

        Duplicate jobs (same :func:`run_key`) are simulated once.  The
        pending rest runs in one pass of the supervised loop
        (:meth:`_execute`), planned over the groups of
        :func:`repro.experiments.reuse.groups`: the tightest pending job
        of every group is queued first, in first-seen group order.
        Whenever a job resolves — simulated, or permanently failed, which
        answers nothing — every pending member of its group that a
        resolved result admits (:func:`repro.experiments.reuse.answers`)
        is answered from that result, stored under its own key with its
        own ``config``, source ``"reused"``; then the group's next
        pending job joins the running queue.  Store hits answer members
        the same way before anything is queued.  A group's steps depend
        only on its own results, so a parallel run simulates exactly the
        serial run's jobs and produces bit-identical results.  The job
        index fault injection sees is the job's place in the plan
        (groups in first-seen order, each tightest first), whatever the
        completion order or worker count.

        Raises :class:`SweepFailure` if any job permanently failed —
        immediately under ``retry.fail_fast``, otherwise after every
        other job completed (partial results stay cached/stored and
        the failures are recorded on :attr:`failures`).
        """
        # A malformed fault plan is a usage error, raised before any
        # job is looked up or dispatched.
        spec = injection.active_spec()
        unique: Dict[Tuple, Job] = {}
        for job in jobs:
            unique.setdefault(job.key, job)
        total = len(unique)
        done = count(1)

        resolved: Dict[Tuple, SimulationResult] = {}
        failed_now: List[JobFailure] = []
        unresolved = set()
        for key, job in unique.items():
            prior = self._failed.get(repr(key))
            if prior is not None:
                # Known-failed this session: report, never re-simulate.
                failed_now.append(prior)
                self._notify(next(done), total, job, "failed")
                continue
            source = "cache" if key in self.cache else "store"
            read_before = self.store_read_seconds
            result = self._lookup(job)
            if result is None:
                unresolved.add(key)
                continue
            resolved[key] = result
            self._profile(
                job, source, store_read_s=self.store_read_seconds - read_before
            )
            self._notify(next(done), total, job, source)

        def settle(group: List[Job]) -> Optional[Job]:
            """Answer every pending member of ``group`` that a resolved
            result admits; return the group's next pending job."""
            for job, result in reuse.answerable(group, resolved, unresolved):
                unresolved.discard(job.key)
                answer = replace(result, config=job.config)
                write_before = self.store_write_seconds
                self._insert(job, answer)
                resolved[job.key] = answer
                self._profile(
                    job, "reused",
                    store_write_s=self.store_write_seconds - write_before,
                )
                self._notify(next(done), total, job, "reused")
            return next((job for job in group if job.key in unresolved), None)

        plan = (
            reuse.groups(
                job for key, job in unique.items()
                if key in resolved or key in unresolved
            )
            if unresolved
            else []
        )
        heads = [head for head in map(settle, plan) if head is not None]
        pending = [job for group in plan for job in group if job.key in unresolved]
        index = {job.key: i for i, job in enumerate(pending)}
        group_of = {job.key: group for group in plan for job in group}
        queue = deque((index[job.key], job) for job in heads)
        with closing(self._execute(queue, spec)) as outcomes:
            for job, outcome in outcomes:
                unresolved.discard(job.key)
                if isinstance(outcome, JobFailure):
                    self._failed[outcome.key] = outcome
                    self.failures.append(outcome)
                    failed_now.append(outcome)
                    self._profile(job, "failed")
                    self._notify(next(done), total, job, "failed")
                    if self.retry.fail_fast:
                        raise SweepFailure(failed_now)
                else:
                    _, result, simulate_s, queue_wait_s = outcome
                    write_before = self.store_write_seconds
                    self._insert(job, result)
                    resolved[job.key] = result
                    self._profile(
                        job, "simulated",
                        queue_wait_s=queue_wait_s,
                        simulate_s=simulate_s,
                        store_write_s=self.store_write_seconds - write_before,
                    )
                    self._notify(next(done), total, job, "simulated")
                head = settle(group_of[job.key])
                if head is not None:
                    queue.append((index[head.key], head))

        if failed_now:
            raise SweepFailure(failed_now)
        return [resolved[job.key] for job in jobs]

    def _execute(
        self, queue: Deque[Tuple[int, Job]], spec: Optional[str]
    ) -> Iterator[Tuple[Job, Union[Tuple, JobFailure]]]:
        """The supervised dispatch loop: run every ``(index, job)`` of
        ``queue`` and yield ``(job, outcome)`` as each resolves
        (completion order), where ``outcome`` is the attempt's success
        envelope ``(True, result, simulate_s, queue_wait_s)`` or a
        :class:`JobFailure`, and ``index`` is the job's number for fault
        injection under ``spec`` (the fault plan :meth:`run` read, which
        every payload carries).  The caller may append jobs to ``queue``
        between outcomes; the loop ends once the queue is empty and
        nothing is in flight.  The pool has one slot per job queued at
        the start, up to ``workers``: :meth:`run` queues one job per
        reuse group and never has more than one of a group's jobs in the
        loop.  An empty queue starts no pool.

        Each job is submitted through ``apply_async`` with a per-job
        deadline and a completion callback that puts its envelope on a
        queue; the supervisor blocks on that queue, retries crashed jobs
        after their deterministic backoff, and reaps hung workers by
        recycling the entire pool (a stuck worker cannot be preempted
        individually).  In-flight bystanders of a recycle are
        re-dispatched without being charged an attempt, and whatever the
        old pool still delivers for them is ignored: every submission
        has its own number.  A job's payload is built
        (:func:`_job_payload`) on its first dispatch; that time is
        :attr:`build_seconds`.

        Without a ``job_timeout`` each worker has one attempt running and
        one queued, so it starts its next job without a round trip
        through the supervisor.  A deadline counts from submission, so
        with one each worker gets only the attempt it runs.  With one
        slot and no ``job_timeout`` there is nothing to overlap or
        preempt, so attempts go to :class:`_InProcessPool` and run in
        this process.  A deadline needs a preemptible worker, so it
        forces a real pool even for one worker and one job.

        One caveat the envelope cannot cover: a worker killed from
        *outside* (SIGKILL, the OOM killer) loses its task silently —
        ``multiprocessing.Pool`` respawns the process but not the job —
        so only a ``job_timeout`` bounds that case.
        """
        if not queue:
            return
        policy = self.retry
        size = min(self.workers, len(queue))
        attempts: Dict[int, int] = {}
        ready_at: Dict[int, float] = {}
        payloads: Dict[int, Tuple] = {}
        # index -> (job, submission number, deadline)
        inflight: Dict[int, Tuple[Job, int, Optional[float]]] = {}
        completions: SimpleQueue = SimpleQueue()
        submissions = count()
        if size == 1 and policy.job_timeout is None:
            pool, depth = _InProcessPool(), 1
        else:
            pool = multiprocessing.Pool(processes=size)
            depth = size if policy.job_timeout is not None else 2 * size
        try:
            while queue or inflight:
                now = time.monotonic()
                # Fill free slots with dispatchable (not backoff-gated)
                # jobs, preserving deterministic first-seen order.
                for _ in range(len(queue)):
                    if len(inflight) >= depth:
                        break
                    index, job = queue.popleft()
                    if ready_at.get(index, 0.0) > now:
                        queue.append((index, job))
                        continue
                    attempt = attempts.get(index, 0) + 1
                    attempts[index] = attempt
                    base = payloads.get(index)
                    if base is None:
                        t0 = time.perf_counter()
                        base = payloads[index] = _job_payload(job)
                        self.build_seconds += time.perf_counter() - t0
                    payload = base + (time.time(), spec, job.app, index, attempt)
                    deadline = (
                        time.monotonic() + policy.job_timeout
                        if policy.job_timeout is not None
                        else None
                    )
                    submission = next(submissions)
                    inflight[index] = (job, submission, deadline)
                    post = partial(_post, completions, index, submission)
                    pool.apply_async(
                        _run_supervised,
                        (payload,),
                        callback=post,
                        error_callback=post,
                    )

                # Block until a completion, the next deadline, or the
                # next backoff expiry.  A backoff counts only while a
                # slot is free to take its job; otherwise an expired one
                # would turn every wait into a spin.
                wakes = [d for _, _, d in inflight.values() if d is not None]
                if len(inflight) < depth:
                    wakes.extend(ready_at.get(index, 0.0) for index, _ in queue)
                try:
                    index, submission, envelope = completions.get(
                        timeout=max(0.0, min(wakes) - time.monotonic())
                        if wakes
                        else None
                    )
                except Empty:
                    # Reap hung workers: any in-flight job past its
                    # deadline costs the whole pool (there is no
                    # telling which worker process is the stuck one), so
                    # terminate and rebuild it.  The hung job is charged
                    # an attempt; innocent in-flight bystanders are not.
                    now = time.monotonic()
                    expired = [
                        index
                        for index, (_, _, deadline) in inflight.items()
                        if deadline is not None and now >= deadline
                    ]
                    if not expired:
                        continue
                    pool.terminate()
                    pool.join()
                    pool = multiprocessing.Pool(processes=size)
                    for index, (job, _, _) in list(inflight.items()):
                        del inflight[index]
                        if index in expired:
                            if attempts[index] < policy.max_attempts:
                                ready_at[index] = time.monotonic() + backoff_delay(
                                    policy, job.key, attempts[index]
                                )
                                queue.append((index, job))
                            else:
                                assert policy.job_timeout is not None
                                yield job, self._failure(
                                    job,
                                    attempts[index],
                                    "timeout",
                                    "job exceeded --job-timeout "
                                    f"({policy.job_timeout:g}s); "
                                    "worker pool recycled",
                                    "",
                                )
                        else:
                            attempts[index] -= 1
                            queue.append((index, job))
                    continue

                if inflight.get(index, (None, None))[1] != submission:
                    continue  # an attempt of a pool recycled since
                job = inflight.pop(index)[0]
                if envelope[0]:
                    yield job, envelope
                    continue
                kind, error, tb = envelope[1]
                if kind == "crash" and attempts[index] < policy.max_attempts:
                    ready_at[index] = time.monotonic() + backoff_delay(
                        policy, job.key, attempts[index]
                    )
                    queue.append((index, job))
                else:
                    yield job, self._failure(job, attempts[index], kind, error, tb)
        finally:
            pool.terminate()
            pool.join()

    def run_app(
        self, app: str, config: SystemConfig, scale: float = 1.0
    ) -> SimulationResult:
        """One job: the cached result, or :meth:`run` of just that job.

        After :meth:`run` has warmed the executor with a module's job
        set, this is a pure in-memory lookup; otherwise the job takes
        the sweep's path — store, retry policy, fault injection and
        failure records — and a permanent failure raises
        :class:`SweepFailure`.
        """
        job = Job(app=app, config=config, scale=scale)
        result = self.cache.get(job.key)
        return result if result is not None else self.run([job])[0]

    def write_manifest(
        self, jobs: Sequence[Job], extra: Optional[Dict[str, Any]] = None
    ) -> Optional[Path]:
        """Write ``run_manifest.json`` next to the store's results.

        Records what this sweep was (job/app/protocol sets), where it
        ran (provenance: git describe, host, interpreter), how (engine,
        workers, retry policy, store schema version), how each unique
        job was resolved (``sources``: simulated, reused, loaded from
        the store, or failed), and what *did not* survive — the
        ``failures`` section carries one replayable record per
        permanently failed job, which ``reproduce --resume`` re-runs.
        Returns the manifest path, or None when there is no store.
        """
        if self.store is None:
            return None
        from repro.obs.provenance import provenance_block

        # Every unique job is profiled once by where it first came
        # from; later lookups of it are ``cache`` hits.
        sources = dict.fromkeys(("simulated", "reused", "store", "failed"), 0)
        for profile in self.job_profiles:
            if profile["source"] in sources:
                sources[profile["source"]] += 1
        manifest: Dict[str, Any] = {
            "schema_version": self.store.schema_version,
            "provenance": provenance_block(),
            "engine": "runahead",
            "workers": self.workers,
            "retry_policy": {
                "retries": self.retry.retries,
                "job_timeout": self.retry.job_timeout,
                "backoff": self.retry.backoff,
                "fail_fast": self.retry.fail_fast,
            },
            "jobs": len(jobs),
            "unique_jobs": len({job.key for job in jobs}),
            "apps": sorted({job.app for job in jobs}),
            "protocols": sorted({job.config.protocol for job in jobs}),
            "scales": sorted({job.scale for job in jobs}),
            "sources": sources,
            "failures": [f.to_json_dict() for f in self.failures],
        }
        if extra:
            manifest.update(extra)
        return self.store.write_manifest_payload(manifest)

