"""Tests for the experiment harness.

Figures are computed at a tiny scale on a subset of apps — these tests
verify plumbing (caching, normalization, formatting), not the paper's
shapes; the shape checks live in tests/integration/test_paper_claims.py.
"""

import dataclasses

import pytest

from repro.common.params import (
    SOFT_COSTS,
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
)
from repro.experiments import (
    compute_figure5,
    compute_figure6,
    compute_figure7,
    compute_figure8,
    compute_figure9,
    compute_table4,
    format_figure5,
    format_figure6,
    format_figure7,
    format_figure8,
    format_figure9,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
)
from repro.experiments.executor import Executor
from repro.experiments.figure6 import figure6_grid
from repro.experiments.runner import EXPERIMENT_APPS, config_key, grid_jobs, run_grid
from repro.experiments.topology_scaling import topology_scaling_grid
from repro.experiments.reporting import render_bar_chart, render_table

SCALE = 0.12
APPS = ("em3d", "moldyn")

#: A different valid value for every string-valued config field.
_ALTERNATIVE_STRINGS = {
    "protocol": "scoma",
    "page_replacement": "lru",
    "topology": "mesh",
    "representation": "limited",
    "overflow": "evict",
    "relocation_mode": "flush",
}


def _leaf_fields(obj, path=()):
    """(field path, value) of every compared non-dataclass field."""
    for f in dataclasses.fields(obj):
        if not f.compare:
            continue
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, path + (f.name,))
        else:
            yield path + (f.name,), value


def _with_leaf(obj, path, value):
    head, *rest = path
    new = _with_leaf(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: new})


@pytest.fixture(scope="module")
def executor():
    return Executor()


class TestConfigs:
    def test_experiment_apps_are_the_ten(self):
        assert len(EXPERIMENT_APPS) == 10

    def test_config_key_distinguishes(self):
        assert config_key(base_ccnuma_config()) != config_key(base_ccnuma_config(1024))
        assert config_key(base_rnuma_config(threshold=16)) != config_key(
            base_rnuma_config(threshold=64)
        )
        assert config_key(ideal_config()) == config_key(ideal_config())

    def test_changing_any_leaf_field_changes_the_key(self):
        """The key is derived from the config, so every compared field —
        including any added later — reaches the store key."""
        base = base_rnuma_config()
        leaves = list(_leaf_fields(base))
        assert len(leaves) > 30
        for path, value in leaves:
            other = _ALTERNATIVE_STRINGS[path[-1]] if isinstance(value, str) else 2 * value
            changed = _with_leaf(base, path, other)
            assert changed != base
            assert config_key(changed) != config_key(base), ".".join(path)

    def test_obs_does_not_change_the_key(self):
        from repro.common.params import ObsParams

        config = base_rnuma_config()
        traced = config.with_obs(ObsParams(trace_path="t.json", metrics_interval=7))
        assert config_key(traced) == config_key(config)

    def test_soft_configs_change_costs(self):
        assert base_scoma_config(costs=SOFT_COSTS).costs.soft_trap == 4000
        assert base_rnuma_config(costs=SOFT_COSTS).costs.tlb_shootdown == 2000


class TestRunner:
    def test_cache_hits(self, executor):
        before = len(executor.cache)
        r1 = executor.run_app("em3d", ideal_config(), scale=SCALE)
        r2 = executor.run_app("em3d", ideal_config(), scale=SCALE)
        assert r1 is r2
        assert len(executor.cache) == before + 1

    def test_distinct_configs_not_conflated(self, executor):
        r1 = executor.run_app("em3d", base_ccnuma_config(), scale=SCALE)
        r2 = executor.run_app("em3d", base_scoma_config(), scale=SCALE)
        assert r1 is not r2


def _two_fabric_grid():
    """Two rows, (em3d, uniform, 4) and (em3d, ring, 4), that share
    their ideal baseline job."""
    return topology_scaling_grid(
        scale=0.05, apps=("em3d",), topologies=("uniform", "ring"), node_counts=(4,)
    )


class TestGrid:
    def test_results_in_grid_order(self, executor):
        grid = figure6_grid(scale=SCALE, apps=("moldyn", "em3d"))
        rows = run_grid(grid, executor)
        assert list(rows) == ["moldyn", "em3d"]
        for app, row in rows.items():
            assert list(row) == ["ideal", "CC-NUMA", "S-COMA", "R-NUMA"]
            for name, result in row.items():
                assert result.config == grid[app][name].config

    def test_shared_job_simulated_once(self):
        exe = Executor()
        rows = run_grid(_two_fabric_grid(), exe)
        ideals = [p for p in exe.job_profiles if p["protocol"] == "ideal"]
        assert [p["source"] for p in ideals] == ["simulated"]
        uniform, ring = rows.values()
        assert uniform["ideal"] is ring["ideal"]
        assert uniform["CC-NUMA"] is not ring["CC-NUMA"]

    def test_grid_jobs_lists_each_key_once(self):
        grid = _two_fabric_grid()
        jobs = grid_jobs(grid)
        keys = [job.key for job in jobs]
        assert len(keys) == len(set(keys)) == 1 + 2 * 3
        assert jobs[0] is grid[("em3d", "uniform", 4)]["ideal"]


class TestFigure6:
    def test_compute_and_format(self, executor):
        fig = compute_figure6(scale=SCALE, apps=APPS, executor=executor)
        assert set(fig.normalized) == set(APPS)
        for row in fig.normalized.values():
            assert set(row) == {"CC-NUMA", "S-COMA", "R-NUMA"}
            assert all(v > 0 for v in row.values())
        text = format_figure6(fig)
        assert "Figure 6" in text and "em3d" in text

    def test_headline_claims_fields(self, executor):
        fig = compute_figure6(scale=SCALE, apps=APPS, executor=executor)
        claims = fig.headline_claims()
        assert set(claims) == {
            "rnuma_worst_vs_best",
            "rnuma_best_vs_best",
            "ccnuma_worst_vs_scoma",
            "scoma_worst_vs_ccnuma",
            "rnuma_never_worst",
        }


class TestFigure5:
    def test_cdf_monotone_and_normalized(self, executor):
        fig = compute_figure5(scale=SCALE, apps=("lu",), executor=executor)
        curve = fig.curves["lu"]
        assert curve, "lu must produce refetches"
        xs = [x for x, _ in curve]
        ys = [y for _, y in curve]
        assert xs == sorted(xs) and ys == sorted(ys)
        assert curve[-1][1] == pytest.approx(1.0)
        assert 0 < fig.refetch_share("lu", 0.5) <= 1.0
        assert "Figure 5" in format_figure5(fig)

    def test_fft_is_omitted(self, executor):
        fig = compute_figure5(scale=SCALE, apps=("fft", "moldyn"), executor=executor)
        assert "fft" not in fig.curves


class TestFigure7:
    def test_five_systems(self, executor):
        fig = compute_figure7(scale=SCALE, apps=("moldyn",), executor=executor)
        assert len(fig.normalized["moldyn"]) == 5
        assert fig.cc_sensitivity("moldyn") > 0
        assert fig.rnuma_page_cache_gain("moldyn") > 0
        assert "Figure 7" in format_figure7(fig)


class TestFigure8:
    def test_normalized_to_t64(self, executor):
        fig = compute_figure8(scale=SCALE, apps=("moldyn",), executor=executor)
        assert fig.normalized["moldyn"][64] == pytest.approx(1.0)
        assert fig.variation("moldyn") >= 0
        assert fig.best_threshold("moldyn") in (16, 64, 256, 1024)
        assert "Figure 8" in format_figure8(fig)


class TestFigure9:
    def test_soft_never_faster(self, executor):
        fig = compute_figure9(scale=SCALE, apps=APPS, executor=executor)
        for app in APPS:
            assert fig.scoma_degradation(app) >= 0.99
            assert fig.rnuma_degradation(app) >= 0.99
        assert "Figure 9" in format_figure9(fig)


class TestTable4:
    def test_columns(self, executor):
        table = compute_table4(scale=SCALE, apps=("moldyn",), executor=executor)
        row = table.rows["moldyn"]
        assert 0.0 <= row.rw_page_refetch_fraction <= 1.0
        assert row.rnuma_refetch_pct is None or row.rnuma_refetch_pct >= 0
        assert "Table 4" in format_table4(table)

    def test_fft_omitted(self, executor):
        table = compute_table4(scale=SCALE, apps=("fft", "moldyn"), executor=executor)
        assert "fft" not in table.rows


class TestStaticTables:
    def test_table1_contains_model_results(self):
        text = format_table1()
        assert "C_refetch" in text and "bound (EQ 3)" in text

    def test_table2_contains_paper_costs(self):
        text = format_table2()
        assert "376" in text and "2000" in text

    def test_table3_lists_all_apps(self):
        text = format_table3(scale=SCALE)
        for app in EXPERIMENT_APPS:
            assert app in text


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text

    def test_render_bar_chart_caps_overflow(self):
        text = render_bar_chart(["app"], [[10.0]], ["S"], cap=4.0)
        assert ">" in text and "10.00" in text
