"""The fault-injection stress campaign, via the repro.exp sweep engine.

The full 36-point grid (error_rate x dllp_error_rate x
replay_buffer_size x input_queue_size) runs in CI through
``python -m benchmarks.harness stress``; here a deterministic sample of
the grid's corners runs through the engine uncached so tier-1 proves
the campaign machinery end to end: every sampled configuration must
complete its transfer with zero invariant violations.
"""

import json
import os

from benchmarks.sweeps import (
    STRESS_DLLP_ERROR_RATES,
    STRESS_ERROR_RATES,
    STRESS_INPUT_QUEUES,
    STRESS_REPLAY_BUFFERS,
    stress_sweep,
)
from repro.exp import Sweep, SweepEngine

#: The committed campaign payload (``python -m benchmarks.harness
#: stress`` writes it; CI's invariant-check job reruns all 38 points).
STRESS_RESULTS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir,
    "benchmarks", "results", "stress_sweep.json")

#: Points tier-1 reruns for byte identity with the committed payload:
#: TLP corruption alone (NAK/replay), DLLP corruption alone (lost ACKs
#: and UpdateFCs, replay timeouts, the FC watchdog), and the
#: credit-starvation scenario, all on the tightest buffers.
IDENTITY_KEYS = (
    "er0.1/dllp0.0/rb1/iq1",
    "er0.0/dllp0.1/rb1/iq1",
    "np_storm/unpinned",
)

#: The corners tier-1 runs: clean baseline, the worst of each error
#: kind alone, and everything-at-once on the tightest buffers.
SAMPLED_KEYS = (
    "er0.0/dllp0.0/rb4/iq2",
    "er0.1/dllp0.0/rb1/iq2",
    "er0.0/dllp0.1/rb2/iq1",
    "er0.1/dllp0.1/rb1/iq1",
)


def test_grid_shape_and_params_are_json_safe():
    sweep = stress_sweep()
    grid = (len(STRESS_ERROR_RATES) * len(STRESS_DLLP_ERROR_RATES)
            * len(STRESS_REPLAY_BUFFERS) * len(STRESS_INPUT_QUEUES))
    # The full grid plus the checker-armed multi-flow and
    # credit-starvation scenario points.
    assert len(sweep) == grid + 2 == 38
    assert "multiflow/er0.02" in {p.key for p in sweep.points}
    assert "np_storm/unpinned" in {p.key for p in sweep.points}
    # SweepPoint construction already validated canonical-JSON-safety;
    # spot-check the campaign's swept knobs are all present.
    point = sweep.points[0]
    for knob in ("block_bytes", "error_rate", "dllp_error_rate",
                 "replay_buffer_size", "input_queue_size"):
        assert knob in point.params


def test_sampled_campaign_corners_complete_with_zero_violations():
    full = stress_sweep()
    by_key = {p.key: p for p in full.points}
    sampled = Sweep("stress_sample")
    for key in SAMPLED_KEYS:
        point = by_key[key]  # KeyError here means the grid changed
        sampled.add(key, point.runner, **point.params)

    engine = SweepEngine(cache_dir=None)  # always simulate fresh
    result = engine.run(sampled)

    assert set(result.results) == set(SAMPLED_KEYS)
    for key, metrics in result.results.items():
        assert metrics["completed"] == 1.0, f"{key} wedged"
        assert metrics["violations"] == 0.0, (
            f"{key} violated {metrics['violated_rules']}")
    # The error-injecting corners really corrupted traffic.
    assert result.results["er0.1/dllp0.1/rb1/iq1"]["tlps_corrupted"] > 0
    assert result.results["er0.1/dllp0.1/rb1/iq1"]["dllps_corrupted"] > 0
    assert result.results["er0.0/dllp0.0/rb4/iq2"]["tlps_corrupted"] == 0


def test_fault_injected_points_reproduce_the_committed_payload():
    """Fault-injected runs are deterministic and unchanged: rerun fresh,
    each point's payload equals the committed one exactly."""
    with open(STRESS_RESULTS) as fh:
        committed = json.load(fh)
    by_key = {p.key: p for p in stress_sweep().points}
    sweep = Sweep("stress_identity")
    for key in IDENTITY_KEYS:
        point = by_key[key]
        sweep.add(key, point.runner, **point.params)

    result = SweepEngine(cache_dir=None).run(sweep)

    for key in IDENTITY_KEYS:
        assert json.dumps(result.results[key], sort_keys=True) == \
            json.dumps(committed[key], sort_keys=True), key
