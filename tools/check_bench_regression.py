"""Gate on a perf benchmark artifact (core-perf or traffic-perf).

Usage::

    python tools/check_bench_regression.py \
        benchmarks/results/BENCH_core.json \
        benchmarks/core_perf_thresholds.json

Compares the *machine-normalised* metrics of the artifact's ``after``
block (wall clocks divided by the frozen calibration workload, so the
numbers are comparable across machines) against the committed
thresholds, and fails when any metric exceeds its threshold.  The
thresholds are set ~25 % above the measured values: CI noise passes, a
real hot-path regression does not.  Kept in a script so the CI job and
local runs share one definition of "pass".

The thresholds file *is* the contract: every key ending in ``_min``
is a floor on the metric named without the suffix (higher is better),
every key ending in ``_max`` is a ceiling on the metric named without
the suffix, every other key (``*_norm``) is a ceiling on the metric of
the same name (lower is better), and keys starting with ``_`` are
comments.  That makes the script artifact-agnostic — BENCH_core.json
and BENCH_traffic.json share it, each with its own thresholds file.
"""

import json
import sys


def classify(thresholds):
    """Split a thresholds doc into (ceiling_keys, floor_keys)."""
    ceilings, floors = [], []
    for key in sorted(thresholds):
        if key.startswith("_"):
            continue  # comment keys
        if key.endswith("_min"):
            floors.append(key)
        else:
            ceilings.append(key)
    return ceilings, floors


def check(doc, thresholds):
    """Return a list of human-readable violations (empty == pass)."""
    after = doc.get("after")
    if not after:
        return ["artifact has no 'after' block — run the benchmark "
                "module with `--phase after` first"]
    ceilings, floors = classify(thresholds)
    if not ceilings and not floors:
        return ["thresholds file bounds nothing (no non-comment keys)"]
    problems = []
    for key in ceilings:
        limit = thresholds[key]
        metric = key.removesuffix("_max")
        value = after.get(metric)
        if value is None:
            problems.append(f"missing metric for threshold {key!r} "
                            f"(limit={limit})")
        elif value > limit:
            problems.append(f"{metric} = {value} exceeds threshold {limit} "
                            f"({value / limit - 1.0:+.1%})")
    for key in floors:
        limit = thresholds[key]
        value = after.get(key.removesuffix("_min"))
        if value is None:
            problems.append(f"missing metric for threshold {key!r} "
                            f"(limit={limit})")
        elif value < limit:
            problems.append(f"{key.removesuffix('_min')} = {value} below "
                            f"floor {limit} ({value / limit - 1.0:+.1%})")
    return problems


def main(argv=None):
    """Validate a benchmark artifact against thresholds; return status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        doc = json.load(fh)
    with open(argv[1]) as fh:
        thresholds = json.load(fh)
    problems = check(doc, thresholds)
    if problems:
        print(f"perf regression gate FAILED ({argv[0]}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    after = doc.get("after", {})
    speedup = doc.get("speedup")
    ceilings, floors = classify(thresholds)
    print(f"perf regression gate passed ({argv[0]}):")
    for key in ceilings:
        metric = key.removesuffix("_max")
        print(f"  {metric} = {after.get(metric)} (limit {thresholds[key]})")
    for key in floors:
        metric = key.removesuffix("_min")
        print(f"  {metric} = {after.get(metric)} (floor {thresholds[key]})")
    if speedup:
        print(f"  before/after speedup: {speedup}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
