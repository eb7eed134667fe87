"""Deterministic fault injection for the sweep infrastructure.

The executor and the result store each call :func:`should_inject` at a
handful of **named injection points**; with nothing armed the call is a
single environment lookup that returns ``False``, so production sweeps
pay nothing.  Arming happens through one environment variable:

.. code-block:: sh

    REPRO_FAULTS="worker-raise:index=3,times=2" python -m repro reproduce ...

which reads "the worker attempt for job #3 of the plan raises on its
first two attempts, then succeeds" — the deterministic schedule the
fault-tolerance property suite uses to pin that an injected-crash sweep
completes with zero result loss and bit-identical results.

Spec grammar
------------
``rule[;rule...]`` where each rule is ``point[:opt=val[,opt=val...]]``:

``point``
    One of :data:`POINTS`.
``app=NAME``
    Only fire for jobs/entries of this application.
``index=N``
    Only fire for job #N (0-based) of the executor's plan: the jobs
    cache and store leave pending, by reuse group in first-seen order,
    each group tightest first.  Job #0 is the first dispatched, and the
    numbering depends on neither completion order nor worker count.
    Worker points only — store operations have no job index.
``times=N``
    Fire on the first ``N`` eligible occasions, then stand down.
    For the worker points the budget is compared against the *attempt
    number* the parent packs into the payload, so it needs no state
    shared across worker processes; for the store points a per-rule
    in-process counter is kept (reset with :func:`reset_counters`).
    Omitted = fire every time.

Injection points
----------------
``worker-raise``
    The worker body raises :class:`~repro.common.errors.FaultInjected`
    before simulating (an ordinary job crash to the supervisor).
``worker-hang``
    The worker body sleeps :data:`HANG_SECONDS` — far past any sane
    ``--job-timeout`` — so only the supervisor's deadline reaping can
    recover the slot.
``store-torn-write``
    :meth:`ResultStore.save` writes a truncated payload straight to the
    final path (modeling a non-atomic filesystem tearing a write) and
    skips the real write.
``store-read-corruption``
    :meth:`ResultStore.load` truncates the bytes it read before parsing
    (modeling a short/corrupt read).
``crash-before-rename``
    :meth:`ResultStore.save` dies (raises ``FaultInjected``) after
    writing its temp file but before the atomic rename, leaving the
    orphan ``.tmp`` a crashed real writer would leave.

Workers may run under any :mod:`multiprocessing` start method, so the
parent snapshots the spec (:func:`active_spec`) into each payload and
workers evaluate it explicitly — nothing relies on environment
inheritance across process boundaries.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError, FaultInjected

#: Environment variable carrying the fault plan spec.
ENV_VAR = "REPRO_FAULTS"

#: Every named injection point.
POINTS = (
    "worker-raise",
    "worker-hang",
    "store-torn-write",
    "store-read-corruption",
    "crash-before-rename",
)

#: Points whose ``times`` budget is judged against the worker attempt
#: number (stateless across processes); the rest count calls in-process.
ATTEMPT_POINTS = ("worker-raise", "worker-hang")

#: How long an injected hang sleeps.  Deliberately absurd: a hung-job
#: test passes only because the supervisor's deadline reaped it, never
#: because the sleep ran out.
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule of a fault plan."""

    point: str
    app: Optional[str] = None
    index: Optional[int] = None
    times: int = -1  # -1 = unlimited


def parse_plan(spec: str) -> Tuple[FaultRule, ...]:
    """Parse a ``REPRO_FAULTS`` spec string into rules.

    Raises :class:`ConfigurationError` on unknown points or malformed
    options — a typo in a fault plan must fail loudly, not silently
    disarm the suite that depends on it.
    """
    rules = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        point, _, opts = chunk.partition(":")
        point = point.strip()
        if point not in POINTS:
            raise ConfigurationError(
                f"unknown fault point {point!r}; expected one of {POINTS}"
            )
        kwargs: Dict[str, object] = {}
        if opts:
            for pair in opts.split(","):
                name, sep, value = pair.partition("=")
                name = name.strip()
                if not sep or name not in ("app", "index", "times"):
                    raise ConfigurationError(
                        f"malformed fault option {pair!r} in {chunk!r}; "
                        "expected app=NAME, index=N, or times=N"
                    )
                if name == "app":
                    kwargs["app"] = value.strip()
                else:
                    try:
                        number = int(value)
                    except ValueError:
                        raise ConfigurationError(
                            f"fault option {name}= wants an integer, got {value!r}"
                        ) from None
                    if number < 0:
                        raise ConfigurationError(
                            f"fault option {name}= must be >= 0, got {value!r}"
                        )
                    kwargs[name] = number
        rules.append(FaultRule(point=point, **kwargs))
    return tuple(rules)


# Parsed-plan memo (spec string -> rules) plus the in-process fire
# counters for the call-counted (store) points.  Guarded by a lock:
# stores may be shared across threads even though sweeps are not.
_plan_cache: Dict[str, Tuple[FaultRule, ...]] = {}
_counts: Dict[Tuple[str, FaultRule], int] = {}
_lock = threading.Lock()


def active_spec() -> Optional[str]:
    """The armed spec string, or None — the parent snapshots this into
    worker payloads so injection never depends on env inheritance.

    The spec is parsed here, so a malformed plan raises
    :class:`ConfigurationError` once, in the parent, instead of
    crashing every worker attempt.
    """
    spec = os.environ.get(ENV_VAR) or None
    if spec is not None:
        _rules_for(spec)
    return spec


def reset_counters() -> None:
    """Forget the call-counted budgets (tests re-arming the same spec)."""
    with _lock:
        _counts.clear()


def _rules_for(spec: str) -> Tuple[FaultRule, ...]:
    rules = _plan_cache.get(spec)
    if rules is None:
        rules = parse_plan(spec)
        with _lock:
            _plan_cache[spec] = rules
    return rules


def should_inject(
    point: str,
    *,
    app: Optional[str] = None,
    index: Optional[int] = None,
    attempt: Optional[int] = None,
    spec: Optional[str] = None,
) -> bool:
    """Whether the named point fires for this (app, index, attempt).

    ``spec=None`` reads the environment (the store's in-parent sites);
    workers pass the spec the parent packed into their payload.  The
    disabled path is one dict lookup.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR)
        if not spec:
            return False
    for rule in _rules_for(spec):
        if rule.point != point:
            continue
        if rule.app is not None and rule.app != app:
            continue
        if rule.index is not None and rule.index != index:
            continue
        if rule.times >= 0:
            if point in ATTEMPT_POINTS:
                if attempt is None or attempt > rule.times:
                    continue
            else:
                with _lock:
                    fired = _counts.get((spec, rule), 0)
                    if fired >= rule.times:
                        continue
                    _counts[(spec, rule)] = fired + 1
        return True
    return False


def maybe_crash(point: str, **context: object) -> None:
    """Raise :class:`FaultInjected` if the point fires."""
    if should_inject(point, **context):  # type: ignore[arg-type]
        detail = " ".join(f"{k}={v}" for k, v in context.items() if v is not None)
        raise FaultInjected(f"injected fault at {point} ({detail or 'unconditional'})")


def maybe_hang(point: str, **context: object) -> None:
    """Sleep :data:`HANG_SECONDS` if the point fires (reaped by the
    supervisor's per-job deadline, never by the sleep expiring)."""
    if should_inject(point, **context):  # type: ignore[arg-type]
        time.sleep(HANG_SECONDS)
