"""The three benchmark workloads and their output gate.

Each workload is a closed loop driven from one process: one repetition
builds the machine, runs it to completion and returns what it
simulated.  Only ``stress_grid`` starts other processes, the sweep
engine's workers.  The benchmark never selects a simulation engine; it
records the one that ran.

* ``dd_gen2x1`` -- the Fig. 9(b) ``64MB/x1`` point: the validation
  topology with both links Gen 2 x1, one ``dd`` block, tracer and
  checker off.  It has no random input, so ``--seed`` does not change
  it.
* ``fanout_rw`` -- the ``fanout_contention`` fabric with readers on
  disk0/disk2 and ``dd_write`` flows on disk1/disk3 behind the shared
  Gen 2 x1 uplink.  The seed feeds the flow seeds.
* ``stress_grid`` -- the 38-point fault-injection campaign through
  ``SweepEngine`` with the result cache off.  The seed offsets the
  error-injection seed of the 36 ``dd`` points.
"""

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional

from benchmarks import config, sweeps
from repro.exp.engine import SweepEngine
from repro.exp.spec import Sweep
from repro.sim.simobject import Simulator
from repro.system import topology
from repro.validation.physical_reference import PhysicalSetup
from repro.workloads.dd import DdWorkload
from repro.workloads.scenarios import Scenario, fanout_contention
from repro.workloads.traffic import FlowSpec, TrafficEngine

WORKLOADS = ("dd_gen2x1", "fanout_rw", "stress_grid")

#: The seed at which every workload reproduces the repository's own
#: defaults (flow seed 1, error seed 0x5EED).
DEFAULT_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
STRESS_PAYLOAD_PATH = os.path.join(ROOT, "benchmarks", "results",
                                   "stress_sweep.json")

MAX_EVENTS = 500_000_000

#: fanout_rw sizing: requests per flow and bytes per request.
FANOUT_REQUESTS = 12
FANOUT_BLOCK_BYTES = 8192


def stats_digest(stats: Dict[str, Any]) -> str:
    """SHA-256 of a ``dump_stats()`` mapping in canonical JSON."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def delivered_tlps(stats: Dict[str, Any]) -> int:
    """TLPs delivered across all link interfaces (``*.delivered``)."""
    return int(sum(v for k, v in stats.items() if k.endswith(".delivered")))


def engine_name(sim) -> str:
    """The simulation engine a simulator resolved to, as recorded
    (never chosen) by the benchmark."""
    backend = getattr(sim, "backend", None)
    name = getattr(backend, "name", None)
    return name or type(sim.eventq).__name__


# -- one repetition of each workload ----------------------------------------

def run_dd_gen2x1(seed: int) -> Dict[str, Any]:
    """One dd block on the Gen 2 x1 validation machine."""
    del seed  # no random input
    start = time.perf_counter()
    system = topology.build_validation_system(
        check=False, root_link_width=1, device_link_width=1,
        **config.SYSTEM_DEFAULTS)
    dd = DdWorkload(system.kernel, system.disk_driver,
                    config.BLOCK_SIZES["64MB"],
                    startup_overhead=config.DD_STARTUP)
    process = system.kernel.spawn("dd", dd.run())
    ready = time.perf_counter()
    system.run(max_events=MAX_EVENTS)
    end = time.perf_counter()
    stats = system.sim.dump_stats()
    done = bool(process.done)
    return {
        "setup_s": ready - start,
        "wall_s": end - start,
        "engine": engine_name(system.sim),
        "outputs": {
            "completed": done,
            "throughput_gbps": dd.result.throughput_gbps if done else 0.0,
            "tlps": delivered_tlps(stats),
            "events": system.sim.eventq.events_processed,
            "stats_sha256": stats_digest(stats),
        },
    }


def fanout_rw_scenario(seed: int) -> Scenario:
    """Readers on disk0/disk2, writers on disk1/disk3, one x1 uplink."""
    base = fanout_contention(fanout=4, requests=FANOUT_REQUESTS,
                             block_bytes=FANOUT_BLOCK_BYTES, seed=1 + seed)
    flows = []
    for i, flow in enumerate(base.flows):
        doc = flow.to_dict()
        if i % 2:
            doc.update(name=f"writer{i}", kind="dd_write")
        flows.append(FlowSpec.from_dict(doc))
    return Scenario("fanout_rw", base.topology, flows,
                    "dd readers beside dd writers on a shared Gen2 x1 uplink")


def run_fanout_rw(seed: int) -> Dict[str, Any]:
    """One pass of the four fanout_rw flows to completion."""
    scenario = fanout_rw_scenario(seed)
    start = time.perf_counter()
    sim = Simulator(check=False)
    system = topology.build_system(scenario.topology, sim=sim)
    engine = TrafficEngine(system, scenario.flows)
    engine.start()
    ready = time.perf_counter()
    system.run(max_events=MAX_EVENTS)
    end = time.perf_counter()
    stats = sim.dump_stats()
    results = engine.results()
    return {
        "setup_s": ready - start,
        "wall_s": end - start,
        "engine": engine_name(sim),
        "outputs": {
            "completed": bool(results["completed"]),
            "total_gbps": results["total_gbps"],
            "tlps": delivered_tlps(stats),
            "events": sim.eventq.events_processed,
            "stats_sha256": stats_digest(stats),
        },
    }


def traced_stress_point(key: str) -> bool:
    """Whether the traced run covers stress point ``key``: the six
    points with both fault kinds at the highest rates, and the two
    multi-flow points.  Tracing all 38 would hold ~16M spans."""
    return key.startswith("er0.1/dllp0.1/") or not key.startswith("er")


def stress_sweep(seed: int, traced: bool = False) -> Sweep:
    """The stress campaign with the seed folded into the error seeds;
    with ``traced``, only the points :func:`traced_stress_point` keeps."""
    sweep = Sweep("stress")
    for point in sweeps.stress_sweep().points:
        if traced and not traced_stress_point(point.key):
            continue
        params = dict(point.params)
        if point.runner == sweeps.STRESS:
            params["error_seed"] = 0x5EED + seed
        sweep.add(point.key, point.runner, **params)
    return sweep


def run_stress_grid(seed: int, workers: int,
                    traced: bool = False) -> Dict[str, Any]:
    """One fresh (uncached) run of the stress campaign."""
    start = time.perf_counter()
    sweep = stress_sweep(seed, traced)
    engine = SweepEngine(cache_dir=None, bench_path=None, workers=workers)
    ready = time.perf_counter()
    result = engine.run(sweep)
    end = time.perf_counter()
    return {
        "setup_s": ready - start,
        "wall_s": end - start,
        "engine": result.record.get("backend", ""),
        "outputs": result.results,
        "per_point_s": result.per_point_s,
        "workers": result.workers,
    }


def run_once(workload: str, seed: int, workers: int = 1,
             traced: bool = False) -> Dict[str, Any]:
    """One repetition of ``workload`` (the traced subset with
    ``traced``)."""
    if workload == "dd_gen2x1":
        return run_dd_gen2x1(seed)
    if workload == "fanout_rw":
        return run_fanout_rw(seed)
    if workload == "stress_grid":
        return run_stress_grid(seed, workers, traced)
    raise ValueError(f"unknown workload {workload!r}")


def model_err_pct(throughput_gbps: float) -> float:
    """|simulated - reference| / reference dd throughput, in percent,
    against the analytic testbed model Fig. 9(a) uses."""
    phys = PhysicalSetup(host_efficiency=0.86,
                         startup_cost=config.PHYS_STARTUP)
    ref = phys.dd_throughput_gbps(config.BLOCK_SIZES["64MB"])
    return abs(throughput_gbps - ref) / ref * 100.0


# -- output gate -------------------------------------------------------------

def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Any]:
    """The pinned expected outputs, plus the committed stress payload."""
    with open(path) as fh:
        expected = json.load(fh)
    with open(STRESS_PAYLOAD_PATH) as fh:
        expected["stress_grid"] = {"payload": json.load(fh)}
    return expected


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def gate(workload: str, seed: int, outputs: Any, expected: Dict[str, Any],
         first: Optional[Any] = None) -> List[str]:
    """Check one repetition's outputs; returns one reason per failed
    operation (empty when every operation is correct).

    An operation is the whole run, or one sweep point for
    ``stress_grid``.  ``dd_gen2x1`` and ``fanout_rw`` are compared
    against their pinned values at every seed: the first has no random
    input and the second's flow seeds only drive pacing jitter, which
    is zero in its saturating flows.  ``stress_grid`` is compared
    against the committed campaign payload at the default seed, and
    elsewhere against ``first``, the outputs of the run's first
    repetition, so same-seed determinism is checked.
    """
    pinned = workload != "stress_grid" or seed == DEFAULT_SEED
    if workload in ("dd_gen2x1", "fanout_rw"):
        if not outputs.get("completed"):
            return [f"{workload}: did not complete"]
        want = expected[workload] if pinned else first
        if want is not None:
            for key, value in want.items():
                if outputs.get(key) != value:
                    return [f"{workload}: {key} {outputs.get(key)!r} != "
                            f"expected {value!r}"]
        return []
    failures = []
    want = expected["stress_grid"]["payload"] if pinned else first
    for key, point in outputs.items():
        if point.get("completed") != 1 or point.get("violations") != 0:
            failures.append(f"{key}: completed={point.get('completed')} "
                            f"violations={point.get('violations')}")
        elif want is not None and _canon(point) != _canon(want.get(key)):
            failures.append(f"{key}: payload differs from expected")
    return failures


def planned_operations(workload: str, seed: int, traced: bool = False) -> int:
    """Operations one repetition attempts: one run, or each point."""
    if workload == "stress_grid":
        return len(stress_sweep(seed, traced))
    return 1
