"""Engine-backend selection: the backend is a run-time argument passed
by name (``simulate(..., engine=)``, ``run --engine``), never a field
of :class:`SystemConfig`, and ``simulate`` builds each backend.  A
sweep has no choice to make: the executor always runs on run-ahead.
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
from repro.sim.engine import ENGINES, SimulationEngine, simulate
from repro.sim.reference import ReferenceEngine

from tests.conftest import tiny_config

TRACES = [
    [Access(0, False, 1), Access(64, True, 0)],
    [Access(512, True, 2), Access(0, True, 0)],
]


def _traces():
    return [list(t) for t in TRACES]


def _spy_on_runs(monkeypatch):
    """Record the class of every engine ``simulate`` runs."""
    built = []
    for cls in (SimulationEngine, ReferenceEngine):
        run = cls.__dict__["run"]

        def spy(engine, run=run):
            built.append(type(engine))
            return run(engine)

        monkeypatch.setattr(cls, "run", spy)
    return built


class TestConfigField:
    """The engine is chosen per run, not stored in the config."""

    def test_default_resolves_to_runahead(self, tmp_path, monkeypatch):
        built = _spy_on_runs(monkeypatch)
        simulate(tiny_config("ccnuma"), _traces())
        assert built == [SimulationEngine]
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


class TestSimulateDispatch:
    def test_simulate_routes_by_engine_name(self, monkeypatch):
        built = _spy_on_runs(monkeypatch)
        results = [
            simulate(tiny_config("scoma"), _traces(), engine=name)
            for name in ENGINES
        ]
        assert built == [SimulationEngine, ReferenceEngine]
        assert list(ENGINES) == ["runahead", "reference"]
        assert len({r.exec_cycles for r in results}) == 1

    def test_builds_each_backend_from_positional_arguments(self, monkeypatch):
        """``simulate`` hands the backend it names ``(config, traces,
        homes)`` positionally, so a profiler that wraps ``__init__``
        finds the traces at a fixed place in its arguments."""
        entered = []
        for cls in (SimulationEngine, ReferenceEngine):
            init = cls.__dict__["__init__"]

            def spy(engine, *args, init=init, cls=cls, **kwargs):
                entered.append((cls, args, kwargs))
                init(engine, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", spy)
        config = tiny_config("ccnuma")
        for name, cls in zip(ENGINES, (SimulationEngine, ReferenceEngine)):
            traces, homes = _traces(), {}
            entered.clear()
            simulate(config, traces, homes, name)
            outer, args, kwargs = entered[0]
            assert outer is cls, name
            assert kwargs == {}, name
            assert len(args) == 3, name
            assert args[0] is config and args[1] is traces and args[2] is homes

    def test_runahead_and_reference_survive_missing_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy fails
        cfg = tiny_config("rnuma")
        fast = simulate(cfg, _traces())
        slow = simulate(cfg, _traces(), engine="reference")
        assert fast.exec_cycles == slow.exec_cycles > 0


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
