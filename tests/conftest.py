"""Shared fixtures: small machines and cache geometries that make
hand-written traces easy to reason about.

The "tiny" geometry used throughout the unit tests:

- 2 nodes x 1 CPU;
- 64-byte blocks, 512-byte pages (8 blocks per page);
- 128-byte L1 (2 lines, direct-mapped: set = block & 1);
- 128-byte block cache (2 lines, set = block & 1);
- 2-page page cache.

With this geometry, two blocks with equal parity conflict in both the
L1 and the block cache, which makes refetch scenarios two lines long.
"""

from __future__ import annotations

import pytest

from repro.common.addressing import AddressSpace
from repro.common.params import CacheParams, CostParams, MachineParams, SystemConfig


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Keep the persistent result store out of the user's home cache.

    CLI commands default to ``default_store_dir()``; without this, test
    runs would populate (and read back!) ~/.cache/repro-rnuma.
    """
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "result-store"))


TINY_SPACE = AddressSpace(block_size=64, page_size=512)
TINY_MACHINE = MachineParams(nodes=2, cpus_per_node=1)
TINY_CACHES = CacheParams(l1_size=128, block_cache_size=128, page_cache_size=1024)


@pytest.fixture
def space():
    return TINY_SPACE


@pytest.fixture
def machine_params():
    return TINY_MACHINE


def tiny_config(protocol: str, **overrides) -> SystemConfig:
    """A SystemConfig on the tiny geometry."""
    kwargs = dict(
        protocol=protocol,
        machine=TINY_MACHINE,
        caches=TINY_CACHES,
        space=TINY_SPACE,
        costs=CostParams(),
        relocation_threshold=2,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


@pytest.fixture
def cc_tiny():
    return tiny_config("ccnuma")


@pytest.fixture
def scoma_tiny():
    return tiny_config("scoma")


@pytest.fixture
def rnuma_tiny():
    return tiny_config("rnuma")


@pytest.fixture
def ideal_tiny():
    return tiny_config("ideal")
