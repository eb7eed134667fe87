"""Stats parity across both engine backends.

The differential suites already pin ``exec_cycles`` and the aggregate
result equality; this suite pins the *full statistics surface* — every
``NodeStats`` field by name, per node, plus the serialized result dict
— so a backend cannot quietly diverge on a counter that the headline
metrics do not consult (e.g. ``tlb_shootdowns`` or the analytic
busy/stall cycle split).
"""

import dataclasses

import pytest

from repro.common.stats import NodeStats
from repro.sim.engine import simulate
from repro.sim.factory import ENGINES

from tests.conftest import tiny_config
from tests.property.test_obs_differential import _traces
from tests.property.test_runahead_differential import PROTOCOLS

STAT_FIELDS = tuple(f.name for f in dataclasses.fields(NodeStats))


def _per_field_stats(result):
    """{field: [per-node values]} for every NodeStats field."""
    return {
        field: [getattr(n, field) for n in result.stats.nodes]
        for field in STAT_FIELDS
    }


def _assert_parity(results):
    baseline_name, baseline = next(iter(results.items()))
    expected = _per_field_stats(baseline)
    for name, result in results.items():
        got = _per_field_stats(result)
        for field in STAT_FIELDS:
            assert got[field] == expected[field], (
                f"{name} vs {baseline_name}: NodeStats.{field} diverged: "
                f"{got[field]} != {expected[field]}"
            )
        assert result.to_json_dict() == baseline.to_json_dict(), (
            f"{name} vs {baseline_name}: serialized results diverged"
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_all_engines_agree_on_every_stat(protocol):
    results = {
        engine: simulate(tiny_config(protocol), _traces(), engine=engine)
        for engine in ENGINES
    }
    _assert_parity(results)


def test_stat_fields_cover_the_tracked_counters():
    """The obs layer's TRACKED_COUNTERS must all be real NodeStats
    fields — a rename there would silently zero a metrics column."""
    from repro.obs.attach import TRACKED_COUNTERS

    missing = set(TRACKED_COUNTERS) - set(STAT_FIELDS)
    assert not missing, f"obs tracks unknown counters: {sorted(missing)}"
