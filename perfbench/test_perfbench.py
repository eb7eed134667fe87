"""Tests of the benchmark's own code, on a one-app sweep at a tiny
scale so each run takes a few seconds.

Run with ``python -m pytest perfbench``.
"""

import json
import re

import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"scale": 0.05, "apps": ["em3d"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: Per-layer metrics that cannot be 0 on a traced pool sweep: counts
#: and span totals.  Shares of a small layer, the dispatch overhead and
#: the tracing overhead are differences or ratios that may round to 0
#: at the tests' tiny scale; the simulated totals of the benchmark's own
#: sweep are checked in expected.json.
NONZERO_PER_LAYER = [
    m["name"]
    for m in BENCHMARK["per_layer"]
    if m["name"].startswith(("workloads.", "sim.", "store.", "render."))
    and not m["name"].startswith("sim.engine.")
] + ["executor.run_s", "executor.busy_share", "executor.queue_wait_p90_ms"]


def test_metric_names_follow_the_grammar_and_are_unique():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[section]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_workload_emits_every_end_to_end_metric_and_one_report(tmp_path):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    digests = set()
    for workload in run.WORKLOADS:
        result = run.run_benchmark(
            workload, seed=7, seconds=0, trace=False, work_root=tmp_path, **TINY
        )
        assert result["correct"], result["info"]["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
        assert all(m["value"] > 0 for m in result["metrics"].values())
        digests.add(result["info"]["report_sha256"])
    assert len(digests) == 1


def test_a_tampered_report_fails_the_digest_check(tmp_path):
    pin = {"report_sha256": "a" * 64, "stats": {"l1_misses": 1}}
    sample = {"rc": 0, "failures": 0, **pin}
    assert run.sample_problems(sample, pin, "the pin") == []
    tampered = dict(pin, report_sha256="0" * 64)
    assert run.sample_problems(sample, tampered, "the pin") == [
        "report digest differs from the pin"
    ]

    result = run.run_benchmark(
        "sweep-cold",
        seed=0,
        seconds=0,
        trace=False,
        work_root=tmp_path,
        expected=dict(pin, report_sha256="0" * 64),
        **TINY,
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_expected_json_pins_the_default_sweep():
    expected = run.load_expected()
    assert re.fullmatch(r"[0-9a-f]{64}", expected["report_sha256"])
    stats = {m["name"] for m in BENCHMARK["per_layer"] if m["name"].startswith("stats.")}
    assert {f"stats.{k}" for k in expected["stats"]} == stats
    assert all(value > 0 for value in expected["stats"].values())
    assert (expected["scale"], expected["engine"], expected["seed"]) == (
        run.SCALE,
        run.ENGINE,
        run.DEFAULT_SEED,
    )


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    # The pool workload: most engine runs happen in forked workers.
    result = run.run_benchmark(
        "sweep-cold-par", seed=0, seconds=0, trace=True, work_root=tmp_path, **TINY
    )
    assert result["correct"], result["info"]["problems"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    shares = [metrics[metric] for _, metric in tracing.SHARES]
    assert sum(shares) == pytest.approx(1.0)
    # Every count and span total is nonzero on the pool workload; the
    # store reads come from the replay, where every lookup hits.
    # (The serial path records no queue wait, so on sweep-cold
    # executor.queue_wait_p90_ms reads 0.)
    for name in NONZERO_PER_LAYER:
        assert metrics[name] > 0, name
    assert metrics["store.reads"] >= metrics["store.writes"]
    # The layer map covers every repro package the profiles saw.
    assert result["info"]["unmapped_packages"] == []
    layer_map = tracing.load_layer_map()
    mapped = set(layer_map["functions"].values()) | set(layer_map["modules"].values())
    assert mapped <= {layer for layer, _ in tracing.SHARES}


def test_layer_of_prefers_functions_then_the_longest_module_prefix():
    layer_map = tracing.load_layer_map()
    src = str(run.SRC) + "/"
    assert tracing.layer_of(layer_map, src + "repro/sim/engine.py", "_miss") == (
        "sim.engine.miss"
    )
    assert tracing.layer_of(layer_map, src + "repro/sim/engine.py", "reset") == "other"
    assert tracing.layer_of(layer_map, src + "repro/vm/tlb.py", "lookup") == "vm"
    assert tracing.layer_of(layer_map, "/usr/lib/python3/heapq.py", "x") == "other"
    assert tracing.unmapped_packages(layer_map, [src + "repro/newpkg/mod.py"]) == {
        "repro/newpkg/"
    }


def test_refuses_to_run_under_fault_injection(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "worker-raise:1")
    with pytest.raises(run.BenchmarkError):
        run.preflight()
