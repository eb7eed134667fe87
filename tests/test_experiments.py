"""Tests for the experiment harness.

Figures are computed at a tiny scale on a subset of apps — these tests
verify plumbing (caching, normalization, formatting), not the paper's
shapes; the shape checks live in tests/integration/test_paper_claims.py.
"""

import dataclasses

import pytest

from repro.experiments import (
    cc_config,
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
    ideal,
    rnuma_config,
    scoma_config,
)
from repro.experiments.config import EXPERIMENT_APPS
from repro.experiments.runner import ResultCache, config_key, run_app
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
def cache():
    return ResultCache()


class TestConfigs:
    def test_experiment_apps_are_the_ten(self):
        assert len(EXPERIMENT_APPS) == 10

    def test_config_key_distinguishes(self):
        assert config_key(cc_config()) != config_key(cc_config(1024))
        assert config_key(rnuma_config(threshold=16)) != config_key(
            rnuma_config(threshold=64)
        )
        assert config_key(ideal()) == config_key(ideal())

    def test_changing_any_leaf_field_changes_the_key(self):
        """The key is derived from the config, so every compared field —
        including any added later — reaches the store key."""
        base = rnuma_config()
        leaves = list(_leaf_fields(base))
        assert len(leaves) > 30
        for path, value in leaves:
            other = _ALTERNATIVE_STRINGS[path[-1]] if isinstance(value, str) else 2 * value
            changed = _with_leaf(base, path, other)
            assert changed != base
            assert config_key(changed) != config_key(base), ".".join(path)

    def test_obs_does_not_change_the_key(self):
        from repro.common.params import ObsParams

        config = rnuma_config()
        traced = config.with_obs(ObsParams(trace_path="t.json", metrics_interval=7))
        assert config_key(traced) == config_key(config)

    def test_soft_configs_change_costs(self):
        from repro.experiments.config import rnuma_soft_config, scoma_soft_config

        assert scoma_soft_config().costs.soft_trap == 4000
        assert rnuma_soft_config().costs.tlb_shootdown == 2000


class TestRunner:
    def test_cache_hits(self, cache):
        before = len(cache)
        r1 = run_app("em3d", ideal(), scale=SCALE, cache=cache)
        r2 = run_app("em3d", ideal(), scale=SCALE, cache=cache)
        assert r1 is r2
        assert len(cache) == before + 1

    def test_distinct_configs_not_conflated(self, cache):
        r1 = run_app("em3d", cc_config(), scale=SCALE, cache=cache)
        r2 = run_app("em3d", scoma_config(), scale=SCALE, cache=cache)
        assert r1 is not r2


class TestFigure6:
    def test_compute_and_format(self, cache):
        fig = compute_figure6(scale=SCALE, apps=APPS, cache=cache)
        assert set(fig.normalized) == set(APPS)
        for row in fig.normalized.values():
            assert set(row) == {"CC-NUMA", "S-COMA", "R-NUMA"}
            assert all(v > 0 for v in row.values())
        text = format_figure6(fig)
        assert "Figure 6" in text and "em3d" in text

    def test_headline_claims_fields(self, cache):
        fig = compute_figure6(scale=SCALE, apps=APPS, cache=cache)
        claims = fig.headline_claims()
        assert set(claims) == {
            "rnuma_worst_vs_best",
            "rnuma_best_vs_best",
            "ccnuma_worst_vs_scoma",
            "scoma_worst_vs_ccnuma",
            "rnuma_never_worst",
        }


class TestFigure5:
    def test_cdf_monotone_and_normalized(self, cache):
        fig = compute_figure5(scale=SCALE, apps=("lu",), cache=cache)
        curve = fig.curves["lu"]
        assert curve, "lu must produce refetches"
        xs = [x for x, _ in curve]
        ys = [y for _, y in curve]
        assert xs == sorted(xs) and ys == sorted(ys)
        assert curve[-1][1] == pytest.approx(1.0)
        assert 0 < fig.refetch_share("lu", 0.5) <= 1.0
        assert "Figure 5" in format_figure5(fig)

    def test_fft_is_omitted(self, cache):
        fig = compute_figure5(scale=SCALE, apps=("fft", "moldyn"), cache=cache)
        assert "fft" not in fig.curves


class TestFigure7:
    def test_five_systems(self, cache):
        fig = compute_figure7(scale=SCALE, apps=("moldyn",), cache=cache)
        assert len(fig.normalized["moldyn"]) == 5
        assert fig.cc_sensitivity("moldyn") > 0
        assert fig.rnuma_page_cache_gain("moldyn") > 0
        assert "Figure 7" in format_figure7(fig)


class TestFigure8:
    def test_normalized_to_t64(self, cache):
        fig = compute_figure8(scale=SCALE, apps=("moldyn",), cache=cache)
        assert fig.normalized["moldyn"][64] == pytest.approx(1.0)
        assert fig.variation("moldyn") >= 0
        assert fig.best_threshold("moldyn") in (16, 64, 256, 1024)
        assert "Figure 8" in format_figure8(fig)


class TestFigure9:
    def test_soft_never_faster(self, cache):
        fig = compute_figure9(scale=SCALE, apps=APPS, cache=cache)
        for app in APPS:
            assert fig.scoma_degradation(app) >= 0.99
            assert fig.rnuma_degradation(app) >= 0.99
        assert "Figure 9" in format_figure9(fig)


class TestTable4:
    def test_columns(self, cache):
        table = compute_table4(scale=SCALE, apps=("moldyn",), cache=cache)
        row = table.rows["moldyn"]
        assert 0.0 <= row.rw_page_refetch_fraction <= 1.0
        assert row.rnuma_refetch_pct is None or row.rnuma_refetch_pct >= 0
        assert "Table 4" in format_table4(table)

    def test_fft_omitted(self, cache):
        table = compute_table4(scale=SCALE, apps=("fft", "moldyn"), cache=cache)
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
