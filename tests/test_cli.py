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
from repro.common.params import base_rnuma_config, config_to_dict
from repro.experiments.executor import JobFailure

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


def test_importing_the_cli_leaves_numpy_unimported():
    """NumPy's only user is the radix trace generator, which imports it
    lazily; the CLI, the engines and the store load without it."""
    code = "import sys, repro.cli; assert 'numpy' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


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


def test_fail_fast_and_keep_going_conflict():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reproduce", "--fail-fast", "--keep-going"])


def test_reproduce_failure_resume_cycle(capsys, tmp_path, monkeypatch):
    """An injected permanent failure makes ``reproduce`` exit nonzero
    with a failure table and a manifest record; ``--resume`` in a
    healthy environment re-runs only that job and clears the record."""
    argv = [
        "reproduce", "--scale", "0.1", "--apps", "em3d",
        "--store", str(tmp_path), "--backoff", "0",
    ]
    monkeypatch.setenv("REPRO_FAULTS", "worker-raise:index=0")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "skipped" in captured.out  # sections missing their job
    assert "permanently failed" in captured.err
    assert "--resume" in captured.err
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert len(manifest["failures"]) == 1
    assert manifest["failures"][0]["kind"] == "crash"

    monkeypatch.delenv("REPRO_FAULTS")
    assert main(argv + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "1 job(s) recovered" in captured.err
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["failures"] == []

    # With the store healed, the full report renders every section.
    out = run_cli(capsys, *argv)
    assert "skipped" not in out
    for heading in ("Table 4", "Figure 5", "Extension: topology"):
        assert heading in out


def test_fail_fast_runs_no_job_after_the_abort(capsys, tmp_path, monkeypatch):
    """``--fail-fast`` stops the sweep at the first permanent failure,
    and the render phase runs none of the jobs the sweep never reached:
    every section that needs a job is a skip line, and the manifest
    records the one failure the failure table shows."""
    monkeypatch.setenv("REPRO_FAULTS", "worker-raise:index=0")
    argv = [
        "reproduce", "--scale", "0.05", "--apps", "em3d", "--fail-fast",
        "--backoff", "0", "--store", str(tmp_path),
    ]
    assert main(argv) == 1
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert len(manifest["failures"]) == 1
    assert manifest["sources"]["simulated"] == 0
    assert manifest["sources"]["failed"] == 1
    assert not list(tmp_path.glob("[0-9a-f]*.json")), "no job may have run"
    captured = capsys.readouterr()
    assert "\n1 job(s) permanently failed:" in captured.err
    # A resume would replay only the failure, not the jobs never run.
    assert "run it again to finish" in captured.err
    assert "--resume" not in captured.err
    assert "Table 2: system cost assumptions" in captured.out
    skipped = [line for line in captured.out.splitlines() if "skipped" in line]
    assert len(skipped) == sum(s.grid is not None for s in SECTIONS)
    assert all("--fail-fast aborted the sweep" in line for line in skipped)


def test_a_section_whose_render_raises_is_skipped(capsys, tmp_path, monkeypatch):
    """Table 3 builds every application, whatever ``--apps`` says.  A
    builder that raises (radix without NumPy) turns that section into a
    skip line naming the error; the rest of the report and the manifest
    are still written, and the command exits 1."""
    from repro.workloads import registry

    def without_numpy(*args, **kwargs):
        raise ModuleNotFoundError("No module named 'numpy'")

    _, problem, paper_input = registry.APPLICATIONS["radix"]
    monkeypatch.setattr(registry, "_cache", {})  # so the builders run
    monkeypatch.setitem(
        registry.APPLICATIONS, "radix", (without_numpy, problem, paper_input)
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
    assert "--resume" not in captured.err  # a resume cannot mend a render
    assert (tmp_path / "run_manifest.json").exists()


def test_resume_with_clean_manifest_is_noop(capsys, tmp_path):
    argv = [
        "reproduce", "--scale", "0.1", "--apps", "em3d", "--store", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 0
    assert "nothing to resume" in capsys.readouterr().err


def test_resume_requires_store():
    with pytest.raises(SystemExit, match="--resume needs the on-disk store"):
        main(["reproduce", "--resume", "--no-store"])


def test_resume_without_manifest_rejected(tmp_path):
    with pytest.raises(SystemExit, match="no run manifest"):
        main(["reproduce", "--resume", "--store", str(tmp_path)])


@pytest.mark.parametrize(
    "manifest",
    [b'{"failures": [', b"\xff\xfe\x00garbage", b"[]"],
    ids=["truncated", "not-utf8", "not-an-object"],
)
def test_resume_rejects_a_damaged_manifest(capsys, tmp_path, manifest):
    """A manifest that does not read as a JSON object is damaged, not
    missing: a usage error that runs nothing and rewrites nothing."""
    path = tmp_path / "run_manifest.json"
    path.write_bytes(manifest)
    assert main(["reproduce", "--resume", "--store", str(tmp_path)]) == 2
    assert f"repro: cannot resume: {path}: " in capsys.readouterr().err
    assert path.read_bytes() == manifest


def _record_whose_config_lacks_a_field():
    config = config_to_dict(base_rnuma_config())
    del config["relocation_mode"]
    return JobFailure(
        key="k", app="em3d", scale=0.1, protocol="rnuma", kind="crash",
        attempts=1, error="", traceback="", config=config,
    ).to_json_dict()


@pytest.mark.parametrize(
    "failures",
    [
        [{"app": "em3d"}],
        ["em3d"],
        "x",
        [_record_whose_config_lacks_a_field()],
    ],
    ids=["missing-field", "non-dict-record", "non-list", "config-missing-field"],
)
def test_resume_rejects_a_malformed_failure_record(capsys, tmp_path, failures):
    """The manifest is a file on disk: a record of the wrong shape is a
    usage error that runs nothing and rewrites nothing."""
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(json.dumps({"failures": failures}))
    before = manifest.read_bytes()
    assert main(["reproduce", "--resume", "--store", str(tmp_path)]) == 2
    assert f"repro: cannot resume: {manifest}: " in capsys.readouterr().err
    assert manifest.read_bytes() == before


def test_malformed_fault_plan_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "bogus")
    argv = ["figure", "5", "--scale", "0.05", "--apps", "em3d", "--no-store"]
    assert main(argv + ["--retries", "2"]) == 2
    err = capsys.readouterr().err
    assert "repro: error: unknown fault point 'bogus'" in err
    assert "permanently failed" not in err
