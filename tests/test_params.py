"""Unit tests for repro.common.params (Table 2 constants and configs)."""

import math

import pytest

from repro.common.addressing import AddressSpace
from repro.common.errors import ConfigurationError
from repro.common.params import (
    BASE_COSTS,
    KB,
    MB,
    SOFT_COSTS,
    CacheParams,
    CostParams,
    MachineParams,
    RetryPolicy,
    SystemConfig,
    base_ccnuma_config,
    base_rnuma_config,
    base_scoma_config,
    ideal_config,
)


class TestCostParams:
    def test_paper_table2_base_values(self):
        assert BASE_COSTS.sram_access == 8
        assert BASE_COSTS.dram_access == 56
        assert BASE_COSTS.local_fill == 69
        assert BASE_COSTS.remote_fetch == 376
        assert BASE_COSTS.soft_trap == 2000
        assert BASE_COSTS.tlb_shootdown == 200

    def test_page_op_range_matches_paper(self):
        # Table 2: allocation/replacement or relocation is 3000~11500.
        assert BASE_COSTS.page_op_cost(0) == 3000
        assert 11000 <= BASE_COSTS.page_op_cost(64) <= 12000

    def test_page_op_monotone_in_blocks(self):
        costs = [BASE_COSTS.page_op_cost(k) for k in range(0, 65, 8)]
        assert costs == sorted(costs)

    def test_page_op_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            BASE_COSTS.page_op_cost(-1)

    def test_soft_variant(self):
        # Figure 9: 10 us faults, 5 us software shootdowns at 400 MHz.
        assert SOFT_COSTS.soft_trap == 4000
        assert SOFT_COSTS.tlb_shootdown == 2000
        # Block operations are unchanged.
        assert SOFT_COSTS.remote_fetch == BASE_COSTS.remote_fetch

    def test_soft_page_ops_roughly_triple_base(self):
        ratio = SOFT_COSTS.page_op_cost(0) / BASE_COSTS.page_op_cost(0)
        assert 2.0 <= ratio <= 3.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigurationError):
            CostParams(soft_trap=-1)


class TestCacheParams:
    def test_frame_counts(self):
        space = AddressSpace()
        caches = CacheParams()
        assert caches.l1_blocks(space) == 128          # 8 KB / 64 B
        assert caches.block_cache_blocks(space) == 512  # 32 KB / 64 B
        assert caches.page_cache_frames(space) == 80    # 320 KB / 4 KB

    def test_rnuma_tiny_block_cache(self):
        space = AddressSpace()
        caches = CacheParams(block_cache_size=128)
        assert caches.block_cache_blocks(space) == 2

    def test_huge_page_cache(self):
        space = AddressSpace()
        caches = CacheParams(page_cache_size=40 * MB)
        assert caches.page_cache_frames(space) == 10240

    def test_rejects_zero_l1(self):
        with pytest.raises(ConfigurationError):
            CacheParams(l1_size=0)


class TestMachineParams:
    def test_defaults_match_paper(self):
        mp = MachineParams()
        assert mp.nodes == 8
        assert mp.cpus_per_node == 4
        assert mp.total_cpus == 32

    def test_node_of_cpu(self):
        mp = MachineParams(nodes=4, cpus_per_node=2)
        assert mp.node_of_cpu(0) == 0
        assert mp.node_of_cpu(1) == 0
        assert mp.node_of_cpu(7) == 3

    def test_node_of_cpu_out_of_range(self):
        with pytest.raises(ConfigurationError):
            MachineParams().node_of_cpu(32)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            MachineParams(nodes=0)


class TestSystemConfig:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(protocol="coma")

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(relocation_threshold=0)

    def test_with_protocol(self):
        cfg = base_ccnuma_config().with_protocol("scoma")
        assert cfg.protocol == "scoma"

    def test_base_configs_match_paper(self):
        assert base_ccnuma_config().caches.block_cache_size == 32 * KB
        assert base_scoma_config().caches.page_cache_size == 320 * KB
        rn = base_rnuma_config()
        assert rn.caches.block_cache_size == 128
        assert rn.caches.page_cache_size == 320 * KB
        assert rn.relocation_threshold == 64
        assert ideal_config().protocol == "ideal"

    def test_base_rnuma_threshold_override(self):
        assert base_rnuma_config(threshold=16).relocation_threshold == 16

    def test_default_topology_is_the_papers_fabric(self):
        assert SystemConfig().topology == "uniform"

    def test_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(topology="hypercube")

    def test_rejects_negative_link_costs(self):
        from repro.common.params import CostParams

        with pytest.raises(ConfigurationError):
            CostParams(link_latency=-1)
        with pytest.raises(ConfigurationError):
            CostParams(link_occupancy=-1)

    def test_topology_round_trips_through_dict(self):
        from repro.common.params import config_from_dict, config_to_dict

        cfg = SystemConfig(topology="torus")
        data = config_to_dict(cfg)
        assert data["topology"] == "torus"
        assert data["costs"]["link_latency"] == cfg.costs.link_latency
        assert config_from_dict(data) == cfg

    def test_pre_topology_payloads_default_to_uniform(self):
        from repro.common.params import config_from_dict, config_to_dict

        data = config_to_dict(SystemConfig())
        del data["topology"]  # a payload serialized before this subsystem
        assert config_from_dict(data).topology == "uniform"


class TestDirectoryParams:
    def test_default_is_the_exact_full_map(self):
        from repro.common.params import DirectoryParams

        assert SystemConfig().directory == DirectoryParams()
        assert SystemConfig().directory.representation == "fullmap"

    def test_rejects_bad_knobs(self):
        from repro.common.params import DirectoryParams

        with pytest.raises(ConfigurationError):
            DirectoryParams(representation="sparse")
        with pytest.raises(ConfigurationError):
            DirectoryParams(representation="limited", pointers=0)
        with pytest.raises(ConfigurationError):
            DirectoryParams(representation="limited", overflow="drop")
        with pytest.raises(ConfigurationError):
            DirectoryParams(representation="coarse", region_size=0)

    def test_round_trips_through_dict(self):
        from repro.common.params import (
            DirectoryParams,
            config_from_dict,
            config_to_dict,
        )

        cfg = SystemConfig(
            directory=DirectoryParams(
                representation="limited", pointers=2, overflow="evict"
            )
        )
        data = config_to_dict(cfg)
        assert data["directory"]["representation"] == "limited"
        assert config_from_dict(data) == cfg

    def test_pre_directory_payloads_default_to_fullmap(self):
        from repro.common.params import config_from_dict, config_to_dict

        data = config_to_dict(SystemConfig())
        del data["directory"]  # a payload serialized before this knob
        assert config_from_dict(data).directory.representation == "fullmap"

    def test_directory_is_part_of_the_run_identity(self):
        from repro.common.params import DirectoryParams
        from repro.experiments.runner import config_key

        exact = SystemConfig()
        coarse = SystemConfig(
            directory=DirectoryParams(representation="coarse", region_size=2)
        )
        assert config_key(exact) != config_key(coarse)


class TestRetryPolicy:
    @pytest.mark.parametrize("field", ["job_timeout", "backoff"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        # inf overflows the supervisor's deadline arithmetic; nan
        # compares false everywhere and silently disarms the knob.
        with pytest.raises(ConfigurationError, match=field):
            RetryPolicy(**{field: value})
