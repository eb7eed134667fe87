"""Full-scale integration tests of the paper's headline claims.

These run the real experiment suite (scale 1.0) and assert the *shapes*
the paper reports; at smaller scales several of them no longer hold.
The unmarked tests are the slowest in tier-1; Figure 5 and Table 4 add
no simulation to Figure 6's.  The ``full_scale`` tests need about a
hundred more scale-1.0 simulations and run as their own tier:
``python -m pytest -m full_scale``.
"""

import pytest

from repro.experiments import (
    compute_figure5,
    compute_figure6,
    compute_figure7,
    compute_figure8,
    compute_figure9,
    compute_placement_ablation,
    compute_relocation_ablation,
    compute_replacement_ablation,
    compute_scaling,
    compute_table4,
)
from repro.experiments.executor import Executor

APPS = (
    "barnes",
    "cholesky",
    "em3d",
    "fft",
    "fmm",
    "lu",
    "moldyn",
    "ocean",
    "radix",
    "raytrace",
)


@pytest.fixture(scope="module")
def executor():
    return Executor()


@pytest.fixture(scope="module")
def figure6(executor):
    return compute_figure6(scale=1.0, apps=APPS, executor=executor)


class TestFigure6Claims:
    def test_rnuma_is_never_the_worst_protocol(self, figure6):
        for app, row in figure6.normalized.items():
            assert row["R-NUMA"] <= max(row["CC-NUMA"], row["S-COMA"]) * 1.001, app

    def test_rnuma_within_57_percent_of_best(self, figure6):
        # The paper's quantitative worst case for R-NUMA.
        for app in APPS:
            assert figure6.worst_case_vs_best(app) <= 1.57, app

    def test_rnuma_sometimes_beats_both(self, figure6):
        # barnes and raytrace in the paper; at least one app here.
        assert any(figure6.worst_case_vs_best(app) < 1.0 for app in APPS)

    def test_ccnuma_and_scoma_each_lose_badly_somewhere(self, figure6):
        claims = figure6.headline_claims()
        # Paper: CC-NUMA up to 179% worse than S-COMA (we require >50%),
        # S-COMA up to 315% worse than CC-NUMA (we require >200%).
        assert claims["ccnuma_worst_vs_scoma"] >= 1.5
        assert claims["scoma_worst_vs_ccnuma"] >= 3.0

    def test_communication_apps_favor_ccnuma(self, figure6):
        # em3d and fft: CC-NUMA ~ ideal, S-COMA clearly worse.
        for app in ("em3d", "fft"):
            row = figure6.normalized[app]
            assert row["CC-NUMA"] <= 1.1
            assert row["S-COMA"] >= 1.4
            assert row["R-NUMA"] <= 1.1

    def test_reuse_apps_favor_scoma(self, figure6):
        # moldyn, lu, cholesky: S-COMA beats CC-NUMA.
        for app in ("moldyn", "lu", "cholesky"):
            row = figure6.normalized[app]
            assert row["S-COMA"] < row["CC-NUMA"], app

    def test_overflow_apps_favor_ccnuma_heavily(self, figure6):
        # fmm and radix: page cache overflow makes S-COMA multiple
        # factors worse than CC-NUMA.
        for app in ("fmm", "radix"):
            row = figure6.normalized[app]
            assert row["S-COMA"] >= 2.5 * row["CC-NUMA"], app

    def test_rnuma_best_for_hot_page_apps(self, figure6):
        # barnes (and ocean): a compact hot set relocates and R-NUMA
        # outperforms both pure protocols.
        for app in ("barnes", "ocean"):
            row = figure6.normalized[app]
            assert row["R-NUMA"] <= row["CC-NUMA"], app
            assert row["R-NUMA"] <= row["S-COMA"], app


class TestFigure8Claims:
    def test_threshold_sensitivity_shape(self, executor):
        # Paper: communication apps are threshold-insensitive; apps with
        # many reuse pages favour *low* thresholds (relocate sooner) and
        # degrade as the threshold grows.
        fig = compute_figure8(
            scale=1.0, apps=("em3d", "moldyn", "barnes"), executor=executor
        )
        assert fig.variation("em3d") <= 0.05
        for app in ("moldyn", "barnes"):
            row = fig.normalized[app]
            assert row[16] <= 1.05, app          # early relocation never hurts much
            assert row[1024] >= row[16], app     # late relocation wastes the benefit


class TestFigure9Claims:
    def test_scoma_more_sensitive_to_page_costs_than_rnuma(self, executor):
        fig = compute_figure9(
            scale=1.0, apps=("em3d", "fmm", "radix", "moldyn"), executor=executor
        )
        # Where S-COMA replaces heavily, tripling page costs hurts it
        # far more than R-NUMA.
        for app in ("em3d", "fmm", "radix"):
            assert fig.scoma_degradation(app) > fig.rnuma_degradation(app), app

    def test_rnuma_soft_degradation_small(self, executor):
        fig = compute_figure9(
            scale=1.0, apps=("em3d", "fmm", "radix", "moldyn"), executor=executor
        )
        for app in ("em3d", "fmm", "radix", "moldyn"):
            assert fig.rnuma_degradation(app) <= 1.45, app


@pytest.fixture(scope="module")
def figure5(executor):
    return compute_figure5(scale=1.0, apps=APPS, executor=executor)


@pytest.fixture(scope="module")
def table4(executor):
    return compute_table4(scale=1.0, apps=APPS, executor=executor)


class TestFigure5Claims:
    def test_some_apps_concentrate_refetches_on_hot_pages(self, figure5):
        # Paper: several apps put >80% of their refetches in <=10% of
        # the remote pages (we require half).
        concentrated = [
            app
            for app, curve in figure5.curves.items()
            if curve and figure5.refetch_share(app, 0.10) >= 0.5
        ]
        assert len(concentrated) >= 2, concentrated

    def test_radix_refetches_are_nearly_uniform(self, figure5):
        assert figure5.refetch_share("radix", 0.10) <= 0.45


class TestTable4Claims:
    def test_refetches_go_mostly_to_read_write_pages(self, table4):
        rw_heavy = [
            app
            for app, row in table4.rows.items()
            if row.rw_page_refetch_fraction >= 0.8
        ]
        assert len(rw_heavy) >= 4, rw_heavy

    def test_raytrace_refetches_its_read_only_scene(self, table4):
        assert table4.rows["raytrace"].rw_page_refetch_fraction <= 0.3

    def test_rnuma_nearly_eliminates_scoma_replacements(self, table4):
        repl = [
            row.rnuma_replacement_pct
            for row in table4.rows.values()
            if row.rnuma_replacement_pct is not None
        ]
        assert repl and min(repl) <= 10.0


@pytest.mark.full_scale
class TestFigure7Claims:
    @pytest.fixture(scope="class")
    def fig(self, executor):
        return compute_figure7(scale=1.0, executor=executor)

    def test_ccnuma_is_sensitive_to_block_cache_size(self, fig):
        assert any(fig.cc_sensitivity(app) >= 1.3 for app in fig.normalized)

    def test_rnuma_recovers_with_a_bigger_block_cache(self, fig):
        # radix and fmm in the paper.
        assert any(
            row["R b=128,p=320K"] / row["R b=32K,p=320K"] >= 1.2
            for row in fig.normalized.values()
        )

    def test_a_40mb_page_cache_never_hurts(self, fig):
        for app, row in fig.normalized.items():
            assert row["R b=128,p=40M"] <= row["R b=128,p=320K"] * 1.02, app


@pytest.mark.full_scale
class TestFigure8AllApps:
    @pytest.fixture(scope="class")
    def fig(self, executor):
        return compute_figure8(scale=1.0, apps=APPS, executor=executor)

    def test_fft_is_threshold_insensitive(self, fig):
        assert fig.variation("fft") <= 0.05

    def test_most_apps_favor_a_low_threshold(self, fig):
        low_wins = [app for app in APPS if fig.best_threshold(app) <= 64]
        assert len(low_wins) >= 5, low_wins


@pytest.mark.full_scale
class TestFigure9AllApps:
    @pytest.fixture(scope="class")
    def fig(self, executor):
        return compute_figure9(scale=1.0, apps=APPS, executor=executor)

    def test_scoma_degrades_more_than_rnuma_at_worst(self, fig):
        scoma_worst = max(fig.scoma_degradation(app) for app in APPS)
        rnuma_worst = max(fig.rnuma_degradation(app) for app in APPS)
        assert scoma_worst > rnuma_worst

    def test_scoma_worst_degradation_is_large(self, fig):
        assert max(fig.scoma_degradation(app) for app in APPS) >= 1.3


@pytest.mark.full_scale
class TestAblationClaims:
    @pytest.fixture(scope="class")
    def flush_home_penalties(self, executor):
        # Flush-home relocation (C_relocate ~ C_allocate) against the
        # aggressive local move.
        result = compute_relocation_ablation(scale=1.0, executor=executor)
        return [
            result.penalty(app, "R-NUMA flush-home", "R-NUMA local-move")
            for app in result.normalized
        ]

    def test_flush_home_relocation_never_beats_local_move(
        self, flush_home_penalties
    ):
        assert all(p >= 0.99 for p in flush_home_penalties), flush_home_penalties

    def test_flush_home_relocation_hurts_somewhere(self, flush_home_penalties):
        assert max(flush_home_penalties) >= 1.02

    def test_lrm_is_competitive_with_lru(self, executor):
        # The paper's argument for building the cheap policy.
        result = compute_replacement_ablation(scale=1.0, executor=executor)
        for app in result.normalized:
            assert result.penalty(app, "S-COMA lrm", "S-COMA lru") <= 1.30, app

    def test_first_touch_beats_round_robin_somewhere(self, executor):
        # The paper's justification for assuming first-touch throughout.
        result = compute_placement_ablation(scale=1.0, executor=executor)
        gains = [
            result.penalty(app, "CC round-robin", "CC first-touch")
            for app in result.normalized
        ]
        assert max(gains) >= 1.15


@pytest.mark.full_scale
def test_rnuma_stays_stable_across_cluster_sizes(executor):
    assert compute_scaling(scale=1.0, executor=executor).stability_bound() <= 1.6
