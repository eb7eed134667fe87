"""Tests for the command-line interface."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import SECTIONS, build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_list(capsys):
    out = run_cli(capsys, "list")
    assert "barnes" in out and "raytrace" in out
    assert "16K particles" in out


def test_run_single_protocol(capsys):
    out = run_cli(capsys, "run", "fft", "--protocol", "ccnuma", "--scale", "0.1")
    assert "ccnuma" in out
    assert "cycles" in out


def test_run_all_protocols(capsys):
    out = run_cli(capsys, "run", "em3d", "--scale", "0.1")
    for protocol in ("ideal", "ccnuma", "scoma", "rnuma"):
        assert protocol in out


def test_run_custom_threshold(capsys):
    out = run_cli(
        capsys, "run", "em3d", "--protocol", "rnuma", "--scale", "0.1",
        "--threshold", "16",
    )
    assert "rnuma" in out


def test_topologies_listing(capsys):
    out = run_cli(capsys, "topologies")
    for name in ("uniform", "ring", "mesh", "torus", "fattree"):
        assert name in out
    assert "mean hops" in out and "links" in out


def test_run_on_topology(capsys):
    uniform = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1"
    )
    ring = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1",
        "--topology", "ring",
    )
    assert "on ring" in ring

    def cycles(text):
        line = next(l for l in text.splitlines() if l.startswith("ccnuma"))
        return int(line.split()[1].replace(",", ""))

    # Hop-dependent latency must actually show up.
    assert cycles(ring) > cycles(uniform)


def test_run_link_cost_overrides(capsys):
    cheap = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1",
        "--topology", "ring", "--link-latency", "0", "--link-occupancy", "0",
    )
    slow = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1",
        "--topology", "ring", "--link-latency", "200",
    )

    def cycles(text):
        line = next(l for l in text.splitlines() if l.startswith("ccnuma"))
        return int(line.split()[1].replace(",", ""))

    assert cycles(slow) > cycles(cheap)


def test_unknown_topology_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "em3d", "--topology", "hypercube"])


def test_trace_stats(capsys):
    out = run_cli(capsys, "trace-stats", "fft", "--scale", "0.1")
    assert "accesses" in out
    assert "barriers" in out
    assert "pages touched" in out
    assert "compiled size" in out
    assert "cpu" in out and "references" in out


def test_trace_stats_unknown_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace-stats", "linpack"])


def test_figure6_subset(capsys):
    out = run_cli(capsys, "figure", "6", "--scale", "0.1", "--apps", "em3d")
    assert "Figure 6" in out and "em3d" in out


def test_table1(capsys):
    out = run_cli(capsys, "table", "1")
    assert "C_refetch" in out


def test_table2(capsys):
    out = run_cli(capsys, "table", "2")
    assert "remote fetch" in out


def test_table3(capsys):
    out = run_cli(capsys, "table", "3", "--scale", "0.1")
    assert "moldyn" in out


def test_table4_small(capsys):
    out = run_cli(capsys, "table", "4", "--scale", "0.1")
    assert "Table 4" in out


def test_ablation_placement(capsys):
    out = run_cli(
        capsys, "ablation", "placement", "--scale", "0.1", "--apps", "em3d"
    )
    assert "Ablation" in out


def test_figure_with_jobs_and_store(capsys, tmp_path):
    out = run_cli(
        capsys, "figure", "6", "--scale", "0.1", "--apps", "em3d",
        "--jobs", "2", "--store", str(tmp_path),
    )
    assert "Figure 6" in out
    assert list(tmp_path.glob("*.json")), "store must be populated"


def test_reproduce_full_sweep_and_store_reuse(capsys, tmp_path):
    argv = (
        "reproduce", "--jobs", "2", "--scale", "0.1", "--apps", "em3d",
        "--store", str(tmp_path),
    )
    first = run_cli(capsys, *argv)
    for heading in ("Table 1", "Table 4", "Figure 5", "Figure 9", "Ablation",
                    "Extension: cluster-size", "Extension: topology"):
        assert heading in first
    stored = len(list(tmp_path.glob("*.json")))
    assert stored > 0
    # Second invocation reuses the store and emits byte-identical output.
    second = run_cli(capsys, *argv)
    assert second == first
    assert len(list(tmp_path.glob("*.json"))) == stored
    # ... and simulates nothing: the store answers every unique job.
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["sources"] == {
        "simulated": 0, "reused": 0, "failed": 0,
        "store": manifest["unique_jobs"],
    }


def test_reproduce_no_store(capsys):
    out = run_cli(
        capsys, "reproduce", "--scale", "0.1", "--apps", "em3d", "--no-store"
    )
    assert "Figure 6" in out


def test_reproduce_heartbeat_prints_one_line_per_unique_job(capsys):
    """The heartbeat counts the sweep's unique jobs, each once; the
    render phase's cache lookups are not progress."""
    argv = ["reproduce", "--scale", "0.05", "--apps", "em3d", "--heartbeat",
            "--no-store"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    unique = int(re.search(r"(\d+) unique after dedup", err).group(1))
    beats = re.findall(r"^ +\[ *(\d+)/(\d+)\]", err, re.M)
    assert [(int(done), int(total)) for done, total in beats] == [
        (done, unique) for done in range(1, unique + 1)
    ]


def test_section_commands_print_what_the_sweep_prints(capsys, tmp_path):
    """Each figure, ablation and table command prints its section of
    the ``reproduce`` report verbatim, served from the sweep's store."""
    common = ("--scale", "0.05", "--store", str(tmp_path))
    report = run_cli(capsys, "reproduce", "--apps", "em3d", *common)
    for command, names in (
        ("figure", "56789"),
        ("ablation", ("placement", "relocation", "replacement")),
    ):
        for name in names:
            out = run_cli(capsys, command, name, "--apps", "em3d", *common)
            assert out in report, (command, name)
    for number in "123":
        assert run_cli(capsys, "table", number, *common) in report, number


def test_section_parsers_offer_the_registry_names():
    (commands,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    for command in ("figure", "table", "ablation"):
        (name,) = [a for a in commands.choices[command]._actions if a.dest == "name"]
        assert list(name.choices) == [
            s.command[1] for s in SECTIONS if s.command and s.command[0] == command
        ]
    assert len(SECTIONS) == len({s.label for s in SECTIONS}) == 15


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "--scale", "0.05"),
        ("figure", "6"),
        ("ablation", "placement", "--retries", "2"),
    ],
)
def test_unknown_app_in_a_sweep_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--apps", "em3d", "linpack"])
    assert exc_info.value.code == 2
    assert "linpack" in capsys.readouterr().err


def test_reproduce_accepts_only_the_runahead_engine(capsys):
    """The benchmark passes ``--engine runahead`` on every sample, so it
    must parse; no other backend can run a sweep."""
    args = build_parser().parse_args(["reproduce", "--engine", "runahead"])
    assert args.engine == "runahead"
    for name in ("specialized", "reference"):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["reproduce", "--engine", name])
        assert exc_info.value.code == 2
        assert name in capsys.readouterr().err
    assert build_parser().parse_args(["run", "em3d", "--engine", "reference"])


def test_engines_listing(capsys):
    out = run_cli(capsys, "engines")
    names = [line.split()[0] for line in out.splitlines()[1:]]
    assert names == ["runahead", "reference"]


def test_engines_listing_prints_each_summary(capsys):
    """A header, then one aligned row per backend with its summary."""
    out = run_cli(capsys, "engines")
    assert out.splitlines() == [
        "engine       summary",
        "runahead     drain-loop scheduler (production default)",
        "reference    classic per-reference loop (differential oracle)",
    ]


def test_reference_engine_refusal_is_a_usage_error(capsys):
    """The oracle models only the full-map directory; asking it to run
    one that can overflow is an error message, not a traceback."""
    code = main([
        "run", "em3d", "--scale", "0.05", "--engine", "reference",
        "--directory", "limited", "--dir-pointers", "2",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert "full-map" in err
    assert "Traceback" not in err


def _run_without_loading(code, *modules):
    """Run ``code`` in a fresh interpreter; fail if it imported any of
    ``modules``."""
    code += (
        f"\nloaded = [name for name in {modules!r} if name in sys.modules]\n"
        "assert not loaded, f'imported {loaded}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_serial_sweep_and_a_run_load_no_numpy_multiprocessing_or_datetime(tmp_path):
    """No module needs NumPy: neither importing the CLI nor a sweep loads
    it, though every sweep's Table 3 builds radix, whose keys are
    NumPy's seeded stream ported to the standard library.  A serial
    sweep runs every job in this process, so it loads no
    ``multiprocessing`` either (only a real pool imports it), and its
    manifest's timestamp loads no ``datetime``; nor does a run on the
    reference engine."""
    _run_without_loading(
        "import sys, repro.cli\n"
        "assert 'numpy' not in sys.modules, 'import repro.cli loaded NumPy'\n"
        "argv = ['reproduce', '--scale', '0.05', '--apps', 'em3d',\n"
        f"        '--store', {str(tmp_path)!r}]\n"
        "assert repro.cli.main(argv) == 0\n"
        "argv = ['run', 'em3d', '--scale', '0.05', '--engine', 'reference']\n"
        "assert repro.cli.main(argv) == 0\n",
        "numpy",
        "multiprocessing",
        "datetime",
    )
    assert (tmp_path / "run_manifest.json").exists()


def test_the_provenance_block_leaves_numpy_unimported():
    """Every manifest, trace and metrics file embeds the provenance
    block; it names no NumPy version, so writing one loads no NumPy."""
    _run_without_loading(
        "import sys\n"
        "from repro.obs.provenance import provenance_block\n"
        "assert 'numpy' not in provenance_block()\n",
        "numpy",
    )


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "linpack"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_nonpositive_jobs_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reproduce", "--jobs", "0"])


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize(
    "command",
    [
        ("run", "em3d"),
        ("trace-stats", "em3d"),
        ("figure", "5"),
        ("table", "4"),
        ("ablation", "placement"),
        ("reproduce",),
    ],
    ids=lambda command: command[0],
)
def test_scale_must_be_finite_and_positive(capsys, command, value):
    with pytest.raises(SystemExit) as exc_info:
        main([*command, "--scale", value])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--scale" in captured.err


def test_nonpositive_threshold_is_a_usage_error(capsys):
    """Rejected while parsing, before any protocol runs and prints."""
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "em3d", "--scale", "0.05", "--threshold", "0"])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threshold" in captured.err


def test_store_path_collision_rejected(tmp_path):
    not_a_dir = tmp_path / "occupied"
    not_a_dir.write_text("")
    with pytest.raises(SystemExit, match="cannot use result store"):
        main(["table", "4", "--scale", "0.1", "--store", str(not_a_dir)])


def test_an_output_path_run_cannot_write_is_one_error_line(capsys, tmp_path):
    """A ``--metrics`` or ``--trace`` path that cannot be written ends
    ``run`` with one ``repro: cannot write`` line and exit 1, no
    traceback; a trace opened before the metrics file failed is closed,
    so it still loads and validates."""
    occupied = tmp_path / "F"
    occupied.write_text("")
    trace = tmp_path / "T.json"
    run = ["run", "em3d", "--protocol", "rnuma", "--scale", "0.05"]
    for outputs, culprit in (
        (["--trace", str(trace), "--metrics", str(occupied / "m.jsonl")], occupied),
        (["--trace", str(tmp_path)], tmp_path),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *run, *outputs],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"repro: cannot write {culprit}: "), line
    json.loads(trace.read_text())
    assert main(["report", str(trace), "--validate"]) == 0
    assert "schema: valid" in capsys.readouterr().out


def test_negative_retries_rejected():
    with pytest.raises(SystemExit, match="retries"):
        main(["table", "4", "--scale", "0.1", "--no-store", "--retries", "-1"])


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_job_timeout_rejected(value):
    with pytest.raises(SystemExit, match="job_timeout"):
        main(["figure", "8", "--apps", "em3d", "--scale", "0.05", "--no-store",
              "--job-timeout", value])


def test_store_gc_rejects_negative_tmp_age(capsys, tmp_path):
    """A negative age would make every fresh ``.tmp`` — possibly a live
    writer's — look old enough to delete."""
    fresh = tmp_path / "live-writer.tmp"
    fresh.write_text("x")
    with pytest.raises(SystemExit) as exc_info:
        main(["store", "gc", "--store", str(tmp_path), "--tmp-age", "-1"])
    assert exc_info.value.code == 2
    assert "--tmp-age" in capsys.readouterr().err
    assert fresh.exists()


@pytest.mark.parametrize("command", ["verify", "gc", "stats"])
def test_store_maintenance_on_a_missing_path_creates_nothing(
    capsys, tmp_path, command
):
    """A mistyped ``--store`` is an error, not a clean empty store."""
    missing = tmp_path / "typo" / "deep"
    assert main(["store", command, "--store", str(missing)]) == 2
    assert f"repro: no result store at {missing}" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()


def test_rerunning_a_failed_sweep_finishes_it(capsys, tmp_path, monkeypatch):
    """An injected permanent failure makes ``reproduce`` exit nonzero
    with a failure table and one manifest record.  Running the same
    command again in a healthy environment simulates only that job,
    serves every other one from the store, and prints a clean sweep's
    report."""
    argv = [
        "reproduce", "--scale", "0.1", "--apps", "em3d",
        "--store", str(tmp_path), "--backoff", "0",
    ]
    manifest_path = tmp_path / "run_manifest.json"
    monkeypatch.setenv("REPRO_FAULTS", "worker-raise:index=0")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "skipped" in captured.out  # sections missing their job
    assert "\n1 job(s) permanently failed:" in captured.err
    assert (
        "run the same command again to re-run only the failed jobs"
        in captured.err
    )
    (failure,) = json.loads(manifest_path.read_text())["failures"]
    assert failure["kind"] == "crash"
    assert sorted(failure) == [
        "app", "attempts", "error", "key", "kind", "protocol", "scale",
        "traceback",
    ]

    monkeypatch.delenv("REPRO_FAULTS")
    report = run_cli(capsys, *argv)
    manifest = json.loads(manifest_path.read_text())
    sources = manifest["sources"]
    assert manifest["failures"] == []
    assert sources["failed"] == 0
    assert sources["simulated"] + sources["reused"] == 1
    assert sources["store"] == manifest["unique_jobs"] - 1
    clean = run_cli(
        capsys, "reproduce", "--scale", "0.1", "--apps", "em3d", "--no-store"
    )
    assert report == clean


def test_a_failed_sweep_without_a_store_claims_nothing_kept(
    capsys, monkeypatch
):
    """With ``--no-store`` nothing outlives the command, so a failed
    sweep neither says partial results were kept nor suggests a rerun,
    which would simulate every job again."""
    monkeypatch.setenv("REPRO_FAULTS", "worker-raise:index=0")
    argv = [
        "reproduce", "--scale", "0.05", "--apps", "em3d", "--no-store",
        "--backoff", "0",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "\n1 job(s) permanently failed:" in err
    assert err.splitlines()[-1] == (
        "reproduce: incomplete; --no-store kept no results"
    )
    assert "partial results kept" not in err
    assert "run the same command again" not in err


@pytest.mark.parametrize(
    "manifest",
    [b'{"failures": [', b"\xff\xfe\x00garbage", b"[]"],
    ids=["truncated", "not-utf8", "not-an-object"],
)
def test_a_rerun_replaces_a_damaged_manifest(capsys, tmp_path, manifest):
    """A sweep reads nothing back from ``run_manifest.json``: over a
    damaged one, the rerun takes every job from the store, prints the
    same report, and writes a whole manifest in its place."""
    argv = [
        "reproduce", "--scale", "0.05", "--apps", "em3d",
        "--store", str(tmp_path),
    ]
    report = run_cli(capsys, *argv)
    path = tmp_path / "run_manifest.json"
    path.write_bytes(manifest)
    assert run_cli(capsys, *argv) == report
    rewritten = json.loads(path.read_text())
    assert rewritten["failures"] == []
    assert rewritten["sources"]["store"] == rewritten["unique_jobs"]


@pytest.mark.parametrize("option", ["--resume", "--fail-fast", "--keep-going"])
def test_the_deleted_sweep_options_are_usage_errors(capsys, option):
    """Running the command again is the only way to finish a sweep, and
    running every job the only way one ends, so the options that chose
    otherwise are gone: each is a usage error before anything runs."""
    with pytest.raises(SystemExit) as exc_info:
        main(["reproduce", option, "--no-store"])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_a_section_whose_render_raises_is_skipped(capsys, tmp_path, monkeypatch):
    """Table 3 builds every application, whatever ``--apps`` says, in
    the render phase.  A builder that raises there (radix's, replaced
    by one whose import fails) turns that section into a skip line
    naming the error; the rest of the report and the manifest are still
    written, and the command exits 1."""
    from repro.workloads import registry

    def broken_builder(*args, **kwargs):
        raise ModuleNotFoundError("No module named 'numpy'")

    _, problem, paper_input = registry.APPLICATIONS["radix"]
    monkeypatch.setattr(registry, "_cache", {})  # so the builders run
    monkeypatch.setitem(
        registry.APPLICATIONS, "radix", (broken_builder, problem, paper_input)
    )
    argv = [
        "reproduce", "--scale", "0.05", "--apps", "em3d", "--store", str(tmp_path),
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (
        "Table 3: skipped — render failed: ModuleNotFoundError: "
        "No module named 'numpy'"
    ) in captured.out
    assert "Figure 6: execution time normalized" in captured.out
    assert "Traceback" in captured.err
    assert "run the same command again" not in captured.err  # no rerun mends it
    assert (tmp_path / "run_manifest.json").exists()


def test_malformed_fault_plan_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "bogus")
    argv = ["figure", "5", "--scale", "0.05", "--apps", "em3d", "--no-store"]
    assert main(argv + ["--retries", "2"]) == 2
    err = capsys.readouterr().err
    assert "repro: error: unknown fault point 'bogus'" in err
    assert "permanently failed" not in err
