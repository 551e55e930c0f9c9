"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dd_gen2x1 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload is repeated, untraced, for about
``--seconds`` seconds and the end-to-end metrics are the medians over
the repetitions.  With ``--trace 1`` it runs once untraced and once
under the span wrappers of ``spans.py`` and reports per-layer metrics.
Every repetition's simulated outputs pass the gate in ``workloads.py``.

Standard output carries one record line (host facts, quartiles, run
count and the derived metrics) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "eventq.self_s": "s", "eventq.events": "count",
    "eventq.events_per_tlp": "count/tlp", "eventq.schedules_per_tlp":
    "count/tlp", "eventq.squash_frac": "fraction",
    "link.self_s": "s", "link.tlps": "count", "link.dllps_per_tlp":
    "count/tlp", "link.wire_pkts_per_tlp": "count/tlp",
    "link.replay_frac": "fraction", "link.timeouts": "count",
    "link.naks": "count",
    "fc.self_s": "s", "fc.updates_per_tlp": "count/tlp",
    "fc.stall_ticks": "ps",
    "routing.self_s": "s", "routing.routed": "count",
    "routing.refusal_frac": "fraction",
    "port.self_s": "s", "port.sends": "count", "port.refusal_frac":
    "fraction", "port.retries": "count",
    "xbar.self_s": "s", "iocache.self_s": "s", "iocache.hit_frac":
    "fraction", "dram.self_s": "s", "dram.reads": "count",
    "dram.writes": "count",
    "devices.self_s": "s", "devices.dma_pkts": "count",
    "kernel.self_s": "s", "kernel.mmio_ops": "count",
    "kernel.interrupts": "count",
    "traffic.self_s": "s",
    "stats.self_s": "s", "stats.updates_per_tlp": "count/tlp",
    "check.self_s": "s", "obs.self_s": "s", "obs.emits": "count",
    "exp.self_s": "s", "exp.point_s_p50": "s", "exp.point_s_max": "s",
    "exp.worker_busy_frac": "fraction",
    "build.self_s": "s", "pci.self_s": "s", "pci.enum_s": "s",
    "pci.config_accesses": "count",
    "other.self_s": "s", "trace.wall_s": "s", "trace.overhead_x": "x",
    "trace.spans": "count",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dd_gen2x1", "fanout_rw", "stress_grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="stress_grid sweep workers (default and "
                             "maximum: usable cores)")
    return parser.parse_args(argv)


def usable_cores() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    empty outside a git checkout or for a packed branch ref."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return ""
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref_path = os.path.join(ROOT, ".git", head[5:])
    if not os.path.isfile(ref_path):
        return ""
    with open(ref_path) as fh:
        return fh.read().strip()


def host_facts(workers: int, engine: str) -> Dict[str, Any]:
    """The facts recorded next to every result."""
    return {
        "usable_cores": usable_cores(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "workers": workers,
        "engine": engine,
    }


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of a list of samples."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def import_s() -> float:
    """Host seconds a fresh interpreter spends importing the program."""
    code = ("import sys, time; sys.path[:0] = %r; t = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - t)"
            % [HERE, os.path.join(ROOT, "src"), ROOT])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Operations attempted and failed over one benchmark run."""

    def __init__(self, wl, workload: str, seed: int):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.expected = wl.load_expected()
        self.first = None
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, workers: int, traced: bool = False):
        """One gated repetition; returns it, or None if it raised."""
        started = time.perf_counter()
        planned = self.wl.planned_operations(self.workload, self.seed, traced)
        self.attempted += planned
        try:
            rep = self.wl.run_once(self.workload, self.seed, workers, traced)
        except Exception:  # a crash is a failed operation, not an exit
            traceback.print_exc(file=sys.stderr)
            self.failures.extend(["raised"] * planned)
            return None
        outputs = rep["outputs"]
        reasons = self.wl.gate(self.workload, self.seed, outputs,
                               self.expected, self.first)
        rep["outer_s"] = time.perf_counter() - started
        if self.first is None:
            self.first = outputs
        self.failures.extend(reasons)
        for reason in reasons:
            print(f"output gate: {reason}", file=sys.stderr)
        return rep

    def result(self, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
        """The final result object."""
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def timed(tally: Tally, seconds: float, workers: int,
          imports: List[float]):
    """Repeat the workload untraced for about ``seconds`` seconds.

    ``setup_s`` is the median import time plus the median repetition's
    set-up.  An interpreter imports the program only once, and the
    host's speed drifts over the run, so a fresh interpreter times the
    import again before each repetition and ``imports`` collects them.
    """
    reps = []
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        imports.append(import_s())
        rep = tally.run(workers)
        if rep is not None:
            reps.append(rep)
        now = time.perf_counter()
        # Start another repetition only if it should end in time.
        if now - began + (now - started) > seconds:
            break
    if not reps:
        return None, {}
    rss = peak_rss_mb()
    walls = [r["wall_s"] for r in reps]
    report = {
        "wall_s": dict(summary(walls), unit="s", samples=walls),
        "setup_s": dict(summary([statistics.median(imports) + r["setup_s"]
                                 for r in reps]), unit="s"),
        "peak_rss_mb": dict(summary([rss]), unit="MB"),
    }
    if tally.workload != "stress_grid":
        report["tlps_per_s"] = dict(summary(
            [r["outputs"]["tlps"] / r["wall_s"] for r in reps]), unit="1/s")
    if tally.workload == "dd_gen2x1":
        report["model_err_pct"] = dict(summary([tally.wl.model_err_pct(
            reps[0]["outputs"]["throughput_gbps"])]), unit="%")
    metrics = {name: (report[name]["median"], unit)
               for name, unit in END_TO_END.items()}
    return metrics, {"metrics": report, "import_s": summary(imports),
                     "engine": reps[0]["engine"]}


def _stat_sum(all_stats: List[Dict[str, Any]], *suffixes: str) -> float:
    return float(sum(v for stats in all_stats for k, v in stats.items()
                     if k.endswith(suffixes)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(tally: Tally, workers: int):
    """Per-layer metrics from one traced repetition, run in-process.

    ``base`` is an untraced repetition as timed; for ``stress_grid``,
    whose traced run covers a subset of the points, an untraced
    in-process run of that subset is the reference for the tracing
    overhead.
    """
    import spans

    stress = tally.workload == "stress_grid"
    base = tally.run(workers)
    reference = tally.run(1, traced=True) if stress else base
    log = spans.SpanLog()
    with spans.Tracing(log):
        rep = tally.run(1, traced=stress)
    if base is None or reference is None or rep is None:
        return None, {}
    trace_wall = rep["outer_s"]

    self_s, roots, inclusive = spans.self_times(
        log.layer, log.parent, log.start, log.end, log.site)
    all_stats = [system.sim.dump_stats() for system in log.systems]
    events = sum(system.sim.eventq.events_processed
                 for system in log.systems)
    tlps = _stat_sum(all_stats, ".delivered")
    schedules = log.calls("EventQueue.schedule")
    counts = log.counts

    def offered(prefix):
        return (counts.get(prefix + ".accepted", 0)
                + counts.get(prefix + ".refusals", 0))

    point_s = sorted((base.get("per_point_s") or {}).values())
    busy = _ratio(sum(point_s), base.get("workers", 1) * base["wall_s"])
    other = trace_wall - roots + self_s[spans.LAYER_INDEX["other"]]
    values = {f"{layer}.self_s": self_s[i]
              for i, layer in enumerate(spans.LAYERS) if layer != "other"}
    values.update({
        "other.self_s": other,
        "eventq.events": events,
        "eventq.events_per_tlp": _ratio(events, tlps),
        "eventq.schedules_per_tlp": _ratio(schedules, tlps),
        "eventq.squash_frac": _ratio(log.calls("EventQueue.deschedule"),
                                     schedules),
        "link.tlps": tlps,
        "link.dllps_per_tlp": _ratio(_stat_sum(
            all_stats, ".acks_sent", ".naks_sent", ".fc_updates_sent"), tlps),
        "link.wire_pkts_per_tlp": _ratio(
            log.calls("UnidirectionalLink.send"), tlps),
        "link.replay_frac": _ratio(_stat_sum(all_stats, ".tlp_replays"),
                                   _stat_sum(all_stats, ".tlps_sent")),
        "link.timeouts": _stat_sum(all_stats, ".timeouts"),
        "link.naks": _stat_sum(all_stats, ".naks_sent"),
        "fc.updates_per_tlp": _ratio(
            _stat_sum(all_stats, ".fc_updates_sent"), tlps),
        "fc.stall_ticks": _stat_sum(all_stats, ".fc_stall_ticks_p",
                                    ".fc_stall_ticks_np",
                                    ".fc_stall_ticks_cpl"),
        "routing.routed": _stat_sum(all_stats, ".requests_routed",
                                    ".responses_routed"),
        "routing.refusal_frac": _ratio(counts.get("routing.refusals", 0),
                                       offered("routing")),
        "port.sends": offered("port"),
        "port.refusal_frac": _ratio(counts.get("port.refusals", 0),
                                    offered("port")),
        "port.retries": (log.calls("SlavePort.send_retry_req")
                         + log.calls("MasterPort.send_retry_resp")),
        "iocache.hit_frac": _ratio(
            _stat_sum(all_stats, "iocache.hits"),
            _stat_sum(all_stats, "iocache.hits", "iocache.misses")),
        "dram.reads": _stat_sum(all_stats, "dram.reads"),
        "dram.writes": _stat_sum(all_stats, "dram.writes"),
        "devices.dma_pkts": _stat_sum(all_stats, ".packets_issued"),
        "kernel.mmio_ops": _stat_sum(all_stats, "cpu.reads_issued",
                                     "cpu.writes_issued"),
        "kernel.interrupts": _stat_sum(all_stats, "intc.dispatched"),
        "stats.updates_per_tlp": _ratio(log.calls("stats.update"), tlps),
        "obs.emits": log.calls("Tracer.emit"),
        "exp.point_s_p50": statistics.median(point_s) if point_s else 0.0,
        "exp.point_s_max": point_s[-1] if point_s else 0.0,
        "exp.worker_busy_frac": busy,
        "pci.enum_s": inclusive.get(log.sites.index("Enumerator.enumerate"),
                                    0.0),
        "pci.config_accesses": _stat_sum(all_stats, ".config_reads",
                                         ".config_writes"),
        "trace.wall_s": trace_wall,
        "trace.overhead_x": trace_wall / reference["outer_s"],
        "trace.spans": len(log),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    log.write(os.path.join(OUT_DIR, f"spans-{tally.workload}.bin"),
              {"workload": tally.workload, "seed": tally.seed,
               "trace_wall_s": trace_wall})
    metrics = {name: (float(values[name]), unit)
               for name, unit in PER_LAYER.items()}
    record = {"untraced_wall_s": reference["outer_s"],
              "engine": base["engine"],
              "port_counts": dict(sorted(counts.items())),
              "peak_rss_mb": peak_rss_mb(),
              "self_s_sum": sum(self_s) - self_s[spans.LAYER_INDEX["other"]]
              + other}
    return metrics, record


def stop_children() -> None:
    """Stop and reap every process the run started.

    The sweep pool joins its workers, but its ``spawn`` start method
    also launches multiprocessing's resource tracker, which would
    outlive the benchmark; close its pipe and wait for it to exit.
    Garbage is collected first, so a dead pool's semaphores are
    unlinked by their own finalizers rather than by the tracker.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    args = _parse(argv)
    cores = usable_cores()
    workers = cores if args.workers is None else args.workers
    if args.workload == "stress_grid" and not 1 <= workers <= cores:
        print(f"refusing {workers} sweep workers on {cores} usable cores",
              file=sys.stderr)
        return 2
    if args.workload != "stress_grid":
        workers = 1
    # The program is imported here, not at the top, so its import time
    # is measured as part of setup_s.
    started = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import workloads
    imports = [time.perf_counter() - started]

    tally = Tally(workloads, args.workload, args.seed)
    if args.trace:
        metrics, record = traced(tally, workers)
    else:
        metrics, record = timed(tally, args.seconds, workers, imports)
    if metrics is None:
        print("no repetition completed", file=sys.stderr)
        return 1
    fail_frac = _ratio(len(tally.failures), tally.attempted)
    record.setdefault("metrics", {})["fail_frac"] = dict(
        summary([fail_frac]), unit="fraction")
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=tally.attempted, failed=len(tally.failures),
                  host=host_facts(workers, record.pop("engine")))
    for name, entry in record["metrics"].items():
        print(f"{args.workload} {name:<16} {entry['median']:.6g} "
              f"{entry['unit']}  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g},"
              f" n={entry['n']})")
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
