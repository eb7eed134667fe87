#!/usr/bin/env python
"""Fault-tolerance drill: watch a sweep survive injected failures.

Runs the same four-protocol sweep three times against a temporary
result store:

1. fault-free, to establish the reference results;
2. with every job crashing on its first two attempts
   (``REPRO_FAULTS="worker-raise:times=2"``) and a retry budget that
   covers it — the sweep completes bit-identically;
3. with one job crashing on *every* attempt — the sweep finishes the
   survivors, raises ``SweepFailure``, records a replayable failure,
   and a resume-style re-run (faults cleared) heals the store.

Run:  python examples/fault_tolerance_drill.py [app] [scale]
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.common.params import RetryPolicy
from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
from repro.experiments.executor import (
    Executor,
    Job,
    ResultStore,
    SweepFailure,
    job_from_failure,
)
from repro.faults.injection import ENV_VAR


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "em3d"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2
    jobs = [
        Job(app, cfg, scale)
        for cfg in (ideal(), cc_config(), scoma_config(), rnuma_config())
    ]

    print(f"1. fault-free sweep of {app!r} at scale {scale} ...")
    baseline = Executor(workers=1).run(jobs)
    for job, result in zip(jobs, baseline):
        print(f"   {job.config.protocol:<8} {result.exec_cycles:>12,} cycles")

    print("\n2. every job crashes twice; retries=2 absorbs it ...")
    os.environ[ENV_VAR] = "worker-raise:times=2"
    try:
        retried = Executor(
            workers=1,
            retry=RetryPolicy(retries=2, backoff=0.05),
        ).run(jobs)
    finally:
        del os.environ[ENV_VAR]
    identical = all(
        a.exec_cycles == b.exec_cycles for a, b in zip(baseline, retried)
    )
    print(f"   completed; bit-identical to fault-free: {identical}")

    print("\n3. job #1 crashes on every attempt; keep-going survives ...")
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        exe = Executor(
            workers=1,
            store=store,
            retry=RetryPolicy(retries=1, backoff=0.05),
        )
        os.environ[ENV_VAR] = "worker-raise:index=1"
        try:
            exe.run(jobs)
        except SweepFailure as failure:
            (dead,) = failure.failures
            print(
                f"   SweepFailure: {dead.app}/{dead.protocol} "
                f"({dead.kind} after {dead.attempts} attempts)"
            )
            print(f"   survivors persisted: {len(store)} of {len(jobs)}")
        finally:
            del os.environ[ENV_VAR]

        print("   resume-style re-run of the one dead job ...")
        healed = Executor(workers=1, store=store)
        (recovered,) = healed.run([job_from_failure(dead)])
        match = recovered.exec_cycles == baseline[1].exec_cycles
        print(
            f"   recovered {dead.protocol} bit-identically: {match}; "
            f"store now holds {len(store)} results"
        )


if __name__ == "__main__":
    main()
