"""Engine-backend selection: the backend is a run-time argument passed
by name (``simulate(..., engine=)``, ``run --engine``), never a field
of :class:`SystemConfig`, and the factory builds each backend.  A sweep
has no choice to make: the executor always runs on run-ahead.
"""

import dataclasses
import json
import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import (
    DirectoryParams,
    SystemConfig,
    config_from_dict,
    config_to_dict,
)
from repro.common.records import Access
from repro.experiments.executor import (
    Executor,
    JobFailure,
    ResultStore,
    job_from_failure,
)
from repro.sim import factory
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.reference import ReferenceEngine

from tests.conftest import tiny_config

TRACES = [
    [Access(0, False, 1), Access(64, True, 0)],
    [Access(512, True, 2), Access(0, True, 0)],
]


def _traces():
    return [list(t) for t in TRACES]


class TestConfigField:
    """The engine is chosen per run, not stored in the config."""

    def test_default_resolves_to_runahead(self, tmp_path):
        assert type(factory.make_engine(tiny_config("ccnuma"), _traces())) is (
            SimulationEngine
        )
        with pytest.raises(TypeError):
            Executor(engine="runahead")
        manifest = Executor(store=ResultStore(tmp_path)).write_manifest([])
        assert json.loads(manifest.read_text())["engine"] == "runahead"

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            simulate(tiny_config("ccnuma"), _traces(), engine="vector")

    def test_engine_is_not_a_config_field(self):
        assert "engine" not in {f.name for f in dataclasses.fields(SystemConfig)}
        with pytest.raises(TypeError):
            SystemConfig(engine="runahead")

    def test_config_from_dict_ignores_a_stored_engine(self):
        """Payloads written while the engine was part of a job still
        load: configs and manifest failure records alike."""
        config = tiny_config("ccnuma")
        data = dict(config_to_dict(config), engine="specialized")
        assert config_from_dict(data) == config
        record = {
            "key": "k", "app": "em3d", "scale": 0.1, "engine": "vector",
            "protocol": "ccnuma", "kind": "crash", "attempts": 1,
            "error": "boom", "traceback": "", "config": data,
        }
        assert job_from_failure(JobFailure.from_json_dict(record)).config == config


class TestFactory:
    def test_builds_each_backend(self):
        cfg = tiny_config("ccnuma")
        assert type(factory.make_engine(cfg, [[], []])) is SimulationEngine
        assert isinstance(
            factory.make_engine(cfg, [[], []], engine="reference"), ReferenceEngine
        )

    def test_backend_listing_shape(self):
        rows = factory.engine_backends()
        assert [r["name"] for r in rows] == list(factory.ENGINES) == [
            "runahead",
            "reference",
        ]
        assert all(set(row) == {"name", "summary"} for row in rows)

    def test_runahead_and_reference_survive_missing_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy fails
        cfg = tiny_config("rnuma")
        fast = simulate(cfg, _traces())
        slow = simulate(cfg, _traces(), engine="reference")
        assert fast.exec_cycles == slow.exec_cycles > 0


class TestSimulateDispatch:
    def test_simulate_routes_by_engine_name(self, monkeypatch):
        built = []
        make = factory.make_engine

        def spy(config, traces, homes=None, engine="runahead"):
            built.append(engine)
            return make(config, traces, homes, engine)

        monkeypatch.setattr(factory, "make_engine", spy)
        results = [
            simulate(tiny_config("scoma"), _traces(), engine=name)
            for name in factory.ENGINES
        ]
        assert built == list(factory.ENGINES)
        assert len({r.exec_cycles for r in results}) == 1


class TestReferenceScope:
    """The oracle models only the exact full-map directory."""

    @pytest.mark.parametrize(
        "directory",
        [
            DirectoryParams(representation="limited", pointers=1),
            DirectoryParams(representation="limited", pointers=1, overflow="evict"),
            DirectoryParams(representation="coarse", region_size=2),
        ],
    )
    def test_refuses_directories_that_can_overflow(self, directory):
        config = tiny_config("ccnuma", directory=directory)
        with pytest.raises(ConfigurationError, match="full-map"):
            simulate(config, _traces(), engine="reference")
        # The production backend models it.
        assert simulate(config, _traces()).exec_cycles > 0

    @pytest.mark.parametrize(
        "directory",
        [
            DirectoryParams(representation="limited", pointers=2),
            DirectoryParams(representation="coarse", region_size=1),
        ],
    )
    def test_accepts_exact_capacity_directories(self, directory):
        config = tiny_config("ccnuma", directory=directory)
        assert (
            simulate(config, _traces(), engine="reference").exec_cycles
            == simulate(config, _traces()).exec_cycles
        )
