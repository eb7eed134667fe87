"""Tests for the interconnect-topology extension experiment."""

from repro.experiments import (
    compute_topology_scaling,
    format_topology_scaling,
    grid_jobs,
    topology_scaling_grid,
)
from repro.experiments.topology_scaling import TopologyScalingResult
from repro.interconnect.topology import topology_names


def test_jobs_enumerate_protocols_by_topology_and_size():
    jobs = grid_jobs(
        topology_scaling_grid(
            scale=0.1,
            apps=("em3d",),
            topologies=("uniform", "ring"),
            node_counts=(4, 8),
        )
    )
    # Per size: 1 ideal baseline + 2 topologies x 3 protocols.
    assert len(jobs) == 2 * (1 + 2 * 3)
    assert all(job.app == "em3d" for job in jobs)
    baselines = [j for j in jobs if j.config.protocol == "ideal"]
    assert all(j.config.topology == "uniform" for j in baselines)
    assert {j.config.machine.nodes for j in jobs} == {4, 8}


def test_baseline_dedups_with_cluster_size_extension():
    from repro.experiments import scaling_grid

    topo = grid_jobs(topology_scaling_grid(scale=0.1, apps=("em3d",)))
    cluster = grid_jobs(scaling_grid(scale=0.1, apps=("em3d",)))
    shared = {j.key for j in topo} & {j.key for j in cluster}
    # The uniform-fabric ideal baselines (and the uniform protocol
    # systems) are the same simulations; reproduce runs them once.
    assert len(shared) >= 3


def test_topology_scaling_small():
    topologies = topology_names()
    result = compute_topology_scaling(
        scale=0.12,
        apps=("em3d",),
        topologies=topologies,
        node_counts=(4, 8),
    )
    assert set(result.normalized) == {
        ("em3d", topo, nodes) for topo in topologies for nodes in (4, 8)
    }
    for row in result.normalized.values():
        assert set(row) == {"CC-NUMA", "S-COMA", "R-NUMA"}
        assert all(v > 0 for v in row.values())
    # Non-negative per-hop costs: a linked fabric can only slow a
    # protocol down relative to its own uniform run.
    for topo in topologies:
        for nodes in (4, 8):
            for protocol in ("CC-NUMA", "S-COMA", "R-NUMA"):
                assert (
                    result.slowdown_vs_uniform("em3d", topo, nodes, protocol)
                    >= 1.0
                )
    text = format_topology_scaling(result)
    assert "topology" in text and "em3d" in text and "ring" in text
    assert "hops" in text


def test_result_math():
    r = TopologyScalingResult(topologies=("uniform", "ring"))
    r.normalized[("x", "uniform", 8)] = {
        "CC-NUMA": 1.0, "S-COMA": 2.0, "R-NUMA": 1.1,
    }
    r.normalized[("x", "ring", 8)] = {
        "CC-NUMA": 1.5, "S-COMA": 2.2, "R-NUMA": 1.8,
    }
    assert r.rnuma_vs_best("x", "ring", 8) == 1.8 / 1.5
    assert r.slowdown_vs_uniform("x", "ring", 8, "CC-NUMA") == 1.5
    assert r.stability_bound() == 1.8 / 1.5
    assert r.mean_hops("uniform", 8) == 1.0
    assert r.mean_hops("ring", 8) > 1.0
