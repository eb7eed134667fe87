"""Tests for ``repro report``: kind sniffing, summaries, validation."""

import json

import pytest

from repro.cli import main
from repro.common.params import ObsParams
from repro.obs.report import metrics_summary, report, sniff_kind, trace_summary
from repro.sim.engine import simulate

from tests.conftest import tiny_config
from tests.property.test_obs_differential import _traces


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One traced + metered rnuma run, shared across this module."""
    tmp = tmp_path_factory.mktemp("obs-artifacts")
    obs = ObsParams(
        trace_path=str(tmp / "run.trace.json"),
        metrics_path=str(tmp / "run.metrics.jsonl"),
        metrics_interval=200,
    )
    result = simulate(tiny_config("rnuma"), _traces(), obs=obs)
    return obs, result


def test_sniff_kind(artifacts, tmp_path):
    obs, _ = artifacts
    assert sniff_kind(obs.trace_path) == "trace"
    assert sniff_kind(obs.metrics_path) == "metrics"
    plain = tmp_path / "lines.jsonl"
    plain.write_text('{"type": "meta"}\n{"type": "final"}\n')
    assert sniff_kind(str(plain)) == "metrics"


def test_trace_summary_reports_events_and_span(artifacts):
    obs, result = artifacts
    text = trace_summary(obs.trace_path)
    assert "remote_fetch" in text
    assert "counter_threshold" in text
    events = json.loads(open(obs.trace_path).read())["traceEvents"]
    real = [e for e in events if e["ph"] != "M"]
    assert f"{len(real):,}" in text


def test_metrics_summary_reports_meta_and_final(artifacts):
    obs, result = artifacts
    text = metrics_summary(obs.metrics_path)
    assert "runahead" in text
    assert f"{result.exec_cycles:,}" in text


def test_report_check_flags_violations(artifacts, tmp_path):
    obs, _ = artifacts
    for path in (obs.trace_path, obs.metrics_path):
        summary, errors = report(path, check=True)
        assert summary and errors == []
    broken = tmp_path / "broken.trace.json"
    broken.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
    _, errors = report(str(broken), check=True)
    assert errors


def test_cli_report_validate(artifacts, capsys):
    obs, _ = artifacts
    assert main(["report", obs.trace_path, "--validate"]) in (0, None)
    out = capsys.readouterr().out
    assert "schema: valid" in out
    assert main(["report", obs.metrics_path, "--validate"]) in (0, None)


def test_cli_report_validates_a_metrics_file_with_a_numpy_version(
    artifacts, tmp_path, capsys
):
    """Metrics files written while the provenance block still carried a
    ``numpy`` version keep passing validation."""
    obs, _ = artifacts
    meta, *rest = open(obs.metrics_path).read().splitlines()
    record = json.loads(meta)
    assert "numpy" not in record["provenance"]
    record["provenance"]["numpy"] = "2.4.6"
    older = tmp_path / "older.metrics.jsonl"
    older.write_text("\n".join([json.dumps(record), *rest]) + "\n")
    assert main(["report", str(older), "--validate"]) in (0, None)
    assert "schema: valid" in capsys.readouterr().out


def test_cli_report_validate_fails_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.metrics.jsonl"
    bad.write_text('{"type": "sample", "ts": 1}\n')
    with pytest.raises(SystemExit):
        main(["report", str(bad), "--validate"])


#: Well-formed JSON of the wrong shape: each is a file --validate flags.
WRONG_SHAPES = {
    "array.json": "[1, 2]",
    "string.json": '"x"',
    "bare-meta.jsonl": '{"type": "meta"}',
    "final-int-node.jsonl": '{"type": "final", "nodes": [1]}',
    "string-ts.jsonl": '{"type": "meta"}\n{"type": "sample", "ts": "x"}',
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_cli_report_on_wrong_shape_json_never_crashes(tmp_path, capsys, name):
    """A summary or a ``cannot report`` exit, and with --validate the
    schema violations and exit 1; never a traceback."""
    path = tmp_path / name
    path.write_text(WRONG_SHAPES[name] + "\n")
    try:
        assert main(["report", str(path)]) in (0, None)
        assert str(path) in capsys.readouterr().out
    except SystemExit as exc:
        assert str(exc.code).startswith(f"repro: cannot report on {path}")
    with pytest.raises(SystemExit) as exc_info:
        main(["report", str(path), "--validate"])
    assert exc_info.value.code == 1
    assert "schema violations" in capsys.readouterr().err
