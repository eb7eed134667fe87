"""Tests for the deterministic fault-injection subsystem itself.

These pin the spec grammar and the firing rules; what the *rest* of
the system does when a fault fires is covered by the store-integrity
suite and the fault-tolerance property suite.
"""

import pytest

from repro.common.errors import ConfigurationError, FaultInjected
from repro.common.params import RetryPolicy
from repro.experiments import executor as executor_module
from repro.experiments.config import cc_config
from repro.experiments.executor import Executor, Job
from repro.faults import injection


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv(injection.ENV_VAR, raising=False)
    injection.reset_counters()


class TestParsePlan:
    def test_bare_point(self):
        (rule,) = injection.parse_plan("worker-raise")
        assert rule.point == "worker-raise"
        assert rule.app is None and rule.index is None and rule.times == -1

    def test_full_options(self):
        (rule,) = injection.parse_plan("worker-raise:app=em3d,index=3,times=2")
        assert rule == injection.FaultRule(
            point="worker-raise", app="em3d", index=3, times=2
        )

    def test_multiple_rules(self):
        rules = injection.parse_plan(
            "worker-raise:times=1; store-torn-write:app=fft"
        )
        assert [r.point for r in rules] == ["worker-raise", "store-torn-write"]

    def test_empty_chunks_ignored(self):
        assert injection.parse_plan(";; worker-hang ;") == (
            injection.FaultRule(point="worker-hang"),
        )

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault point"):
            injection.parse_plan("worker-explode")

    def test_malformed_option_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed fault option"):
            injection.parse_plan("worker-raise:bogus=1")

    def test_non_integer_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="wants an integer"):
            injection.parse_plan("worker-raise:times=lots")

    @pytest.mark.parametrize("option", ["index=-1", "times=-2"])
    def test_negative_option_rejected(self, option):
        # index=-1 never fires: it would silently disarm the plan.
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            injection.parse_plan(f"worker-raise:{option}")


class TestShouldInject:
    def test_disarmed_is_false(self):
        assert not injection.should_inject("worker-raise", app="em3d")

    def test_armed_via_env(self, monkeypatch):
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise")
        assert injection.should_inject("worker-raise", attempt=1)
        assert not injection.should_inject("worker-hang", attempt=1)

    def test_explicit_spec_overrides_env(self):
        assert injection.should_inject(
            "worker-raise", attempt=1, spec="worker-raise"
        )

    def test_app_filter(self):
        spec = "worker-raise:app=em3d"
        assert injection.should_inject("worker-raise", app="em3d", spec=spec)
        assert not injection.should_inject("worker-raise", app="fft", spec=spec)

    def test_index_filter(self):
        spec = "worker-raise:index=2"
        assert injection.should_inject("worker-raise", index=2, spec=spec)
        assert not injection.should_inject("worker-raise", index=0, spec=spec)

    def test_attempt_budget_is_stateless(self):
        # "Fail twice then succeed": judged purely on the attempt
        # number, so it holds across worker processes with no shared
        # state — and re-asking about attempt 1 gives the same answer.
        spec = "worker-raise:times=2"
        assert injection.should_inject("worker-raise", attempt=1, spec=spec)
        assert injection.should_inject("worker-raise", attempt=2, spec=spec)
        assert not injection.should_inject("worker-raise", attempt=3, spec=spec)
        assert injection.should_inject("worker-raise", attempt=1, spec=spec)

    def test_store_budget_counts_calls(self):
        spec = "store-torn-write:times=1"
        assert injection.should_inject("store-torn-write", spec=spec)
        assert not injection.should_inject("store-torn-write", spec=spec)
        injection.reset_counters()
        assert injection.should_inject("store-torn-write", spec=spec)

    def test_store_budgets_are_per_rule(self):
        spec = "store-torn-write:times=1; store-read-corruption:times=1"
        assert injection.should_inject("store-torn-write", spec=spec)
        assert injection.should_inject("store-read-corruption", spec=spec)
        assert not injection.should_inject("store-read-corruption", spec=spec)


class TestHelpers:
    def test_maybe_crash_raises_fault_injected(self):
        with pytest.raises(FaultInjected, match="worker-raise"):
            injection.maybe_crash(
                "worker-raise", spec="worker-raise", app="em3d", attempt=1
            )

    def test_maybe_crash_noop_when_disarmed(self):
        injection.maybe_crash("worker-raise", app="em3d", attempt=1)

    def test_maybe_hang_sleeps_hang_seconds(self, monkeypatch):
        naps = []
        monkeypatch.setattr(injection.time, "sleep", naps.append)
        injection.maybe_hang("worker-hang", spec="worker-hang", attempt=1)
        assert naps == [injection.HANG_SECONDS]

    def test_active_spec_reads_env(self, monkeypatch):
        assert injection.active_spec() is None
        monkeypatch.setenv(injection.ENV_VAR, "worker-raise")
        assert injection.active_spec() == "worker-raise"


def test_a_malformed_plan_runs_no_attempt(monkeypatch):
    """The executor parses the plan before any job is looked up, so a
    typo is one usage error, not a crash recorded (and retried) for
    every job."""
    attempts = []
    run_supervised = executor_module._run_supervised

    def spy(payload):
        attempts.append(payload)
        return run_supervised(payload)

    monkeypatch.setattr(executor_module, "_run_supervised", spy)
    monkeypatch.setenv(injection.ENV_VAR, "bogus")
    executor = Executor(retry=RetryPolicy(retries=2, backoff=0.0))
    with pytest.raises(ConfigurationError, match="unknown fault point 'bogus'"):
        executor.run([Job("em3d", cc_config(), 0.05)])
    assert attempts == []
    assert executor.failures == []
