"""Tests for the cluster-size extension experiment."""

from repro.experiments import compute_scaling, format_scaling


def test_scaling_small():
    result = compute_scaling(scale=0.12, apps=("em3d",), node_counts=(4, 8))
    assert set(result.normalized) == {("em3d", 4), ("em3d", 8)}
    for row in result.normalized.values():
        assert set(row) == {"CC-NUMA", "S-COMA", "R-NUMA"}
        assert all(v > 0 for v in row.values())
    assert result.stability_bound() > 0
    text = format_scaling(result)
    assert "Extension" in text and "em3d" in text


def test_rnuma_vs_best_math():
    from repro.experiments.extension_scaling import ScalingResult

    r = ScalingResult()
    r.normalized[("x", 8)] = {"CC-NUMA": 2.0, "S-COMA": 1.0, "R-NUMA": 1.3}
    assert r.rnuma_vs_best("x", 8) == 1.3
    assert r.stability_bound() == 1.3
