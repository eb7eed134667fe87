"""The public API surface: everything README/examples rely on."""

import os
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_snippet():
    """The README quickstart, verbatim (at reduced scale)."""
    from repro import base_rnuma_config, build_program, ideal_config, simulate

    program = build_program("fft", scale=0.1)
    baseline = simulate(ideal_config(), program)
    result = simulate(base_rnuma_config(), program)
    assert result.normalized_to(baseline) > 0
    assert "refetches" in result.summary()


def test_experiments_namespace():
    from repro import experiments

    for name in (
        "compute_figure5",
        "compute_figure6",
        "compute_figure7",
        "compute_figure8",
        "compute_figure9",
        "compute_table4",
        "compute_relocation_ablation",
        "compute_replacement_ablation",
        "compute_placement_ablation",
    ):
        assert hasattr(experiments, name), name


def test_workload_registry_matches_table3():
    assert len(repro.APPLICATIONS) == 10
    assert repro.workload_names() == sorted(repro.workload_names())


def test_model_exports():
    params = repro.ModelParameters(376.0, 7000.0, 7000.0)
    model = repro.CompetitiveModel(params)
    assert 2.0 <= model.bound_at_optimum <= 3.0
    assert repro.optimal_threshold(params) == model.optimal_threshold
    assert repro.worst_case_bound(params) == model.bound_at_optimum


def test_cli_loads_neither_the_oracle_nor_the_obs_writers():
    """Each name is imported from its defining module, so a process that
    imports the CLI, simulates, and writes a manifest's provenance block
    loads only what it runs: not the reference engine or the frozen
    oracle, nor the trace and metrics writers.  Nor ``multiprocessing``,
    which only a sweep's real pool imports, or ``datetime``: the
    provenance timestamp comes from ``time``.  The run takes no test
    helper, since importing pytest loads ``datetime``."""
    code = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.common.params import base_rnuma_config\n"
        "from repro.common.records import Access, Barrier\n"
        "from repro.sim.engine import simulate\n"
        "config = base_rnuma_config()\n"
        "cpus = config.machine.total_cpus\n"
        "simulate(config, [[Access(0), Barrier(0)]] + [[Barrier(0)]] * (cpus - 1))\n"
        "import repro.obs.provenance\n"
        "unused = ('repro.sim.reference', 'repro.sim.legacy',\n"
        "          'repro.obs.trace', 'repro.obs.metrics',\n"
        "          'multiprocessing', 'datetime')\n"
        "loaded = [name for name in unused if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
