"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import copy
import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _pinned_outputs(workload):
    """Outputs equal to the pinned expected values, as a run would
    return them."""
    return dict(workloads.load_expected()[workload])


def _stub(workload, expected=None):
    """A workloads module whose runs return the pinned outputs without
    simulating; the gate is the real one."""
    def run_once(name, seed, workers=1, traced=False):
        return {"setup_s": 0.01, "wall_s": 0.02, "engine": "stub",
                "outputs": _pinned_outputs(workload)}

    return types.SimpleNamespace(
        run_once=run_once, gate=workloads.gate,
        planned_operations=lambda name, seed, traced=False: 1,
        load_expected=lambda: expected or workloads.load_expected(),
        model_err_pct=workloads.model_err_pct)


def test_printed_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    tally = run.Tally(_stub("dd_gen2x1"), "dd_gen2x1", 0)
    metrics, _ = run.timed(tally, 0.0, 1, [0.1])
    printed = tally.result(metrics)["metrics"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: entry["unit"] for name, entry in printed.items()}

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    tally = run.Tally(_stub("dd_gen2x1"), "dd_gen2x1", 0)
    metrics, _ = run.traced(tally, 1)
    printed = tally.result(metrics)["metrics"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: entry["unit"] for name, entry in printed.items()}
    assert tally.failures == []


def test_self_times_on_a_nested_span_tree():
    # root(0)[0,10] > a(1)[1,4] > b(2)[2,3];  root > c(1)[5,9];  d(2)[11,12]
    layer = [0, 1, 2, 1, 2]
    site = [0, 1, 2, 1, 3]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    self_s, roots, inclusive = spans.self_times(layer, parent, start, end,
                                                site, nlayers=3)
    assert self_s == [3.0, 6.0, 2.0]
    assert roots == 11.0
    assert sum(self_s) == roots
    assert inclusive == {0: 10.0, 1: 7.0, 2: 1.0, 3: 1.0}


def test_tampered_expected_output_counts_as_failure():
    expected = workloads.load_expected()
    tampered = copy.deepcopy(expected)
    tampered["dd_gen2x1"]["stats_sha256"] = "0" * 64
    ok = run.Tally(_stub("dd_gen2x1", expected), "dd_gen2x1", 0)
    bad = run.Tally(_stub("dd_gen2x1", tampered), "dd_gen2x1", 0)
    ok.run(1)
    bad.run(1)
    assert ok.result({})["correct"] and ok.result({})["failed"] == 0
    result = bad.result({})
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)

    payload = copy.deepcopy(expected["stress_grid"]["payload"])
    assert workloads.gate("stress_grid", 0, payload, expected) == []
    first = next(iter(payload))
    payload[first]["throughput_gbps"] += 1e-9
    assert len(workloads.gate("stress_grid", 0, payload, expected)) == 1
    payload[first]["violations"] = 1.0
    assert len(workloads.gate("stress_grid", 7, payload, expected)) == 1


def _small_dd_digest():
    from benchmarks import config
    from repro.system import topology
    from repro.workloads.dd import DdWorkload

    system = topology.build_validation_system(check=False,
                                              **config.SYSTEM_DEFAULTS)
    dd = DdWorkload(system.kernel, system.disk_driver, 16 * 1024)
    system.kernel.spawn("dd", dd.run())
    system.run(max_events=10_000_000)
    return workloads.stats_digest(system.sim.dump_stats())


def test_wrappers_are_removed_after_the_traced_run():
    untraced = _small_dd_digest()
    log = spans.SpanLog()
    tracing = spans.Tracing(log)
    with tracing:
        patches = tracing.patched
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
        traced = _small_dd_digest()
    assert len(log) > 0 and len(log.systems) == 1
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
    recorded = len(log)
    assert _small_dd_digest() == traced == untraced
    assert len(log) == recorded


def _square(x):
    return x * x


def test_stop_children_reaps_the_pool_and_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=2) as pool:
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
    del pool
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_children()
    assert tracker._pid is None
    assert multiprocessing.active_children() == []
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError(f"resource tracker {pid} still exists")
