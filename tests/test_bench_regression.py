"""The perf-gate script's threshold-key contract."""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
try:
    import check_bench_regression as gate
finally:
    sys.path.pop(0)


def test_max_suffix_is_a_ceiling_on_the_unsuffixed_metric():
    thresholds = {"_comment": "x", "dd_gen2x1_checked_ratio_max": 1.8}
    assert gate.check({"after": {"dd_gen2x1_checked_ratio": 1.6}},
                      thresholds) == []
    problems = gate.check({"after": {"dd_gen2x1_checked_ratio": 2.0}},
                          thresholds)
    assert len(problems) == 1
    assert problems[0].startswith("dd_gen2x1_checked_ratio = 2.0 exceeds")


def test_norm_ceilings_and_min_floors_keep_their_meaning():
    thresholds = {"link_norm": 2.0, "eventq_ops_per_sec_min": 100}
    assert gate.check({"after": {"link_norm": 1.0,
                                 "eventq_ops_per_sec": 200}},
                      thresholds) == []
    assert len(gate.check({"after": {"link_norm": 3.0,
                                     "eventq_ops_per_sec": 50}},
                          thresholds)) == 2


def test_missing_metric_fails():
    problems = gate.check({"after": {"link_norm": 1.0}},
                          {"dd_gen2x1_checked_ratio_max": 1.8})
    assert problems and "missing metric" in problems[0]
