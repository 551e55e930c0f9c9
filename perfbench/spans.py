"""Span tracing for the benchmark's traced run.

The simulator has no host-time instrumentation of its own, so the
traced run installs wrappers around the public entry points of each
layer at run time and removes them afterwards; the program's source is
never edited.  Every wrapped call records one span: its layer, the
wrapped site, start and end (``time.perf_counter``), the index of the
enclosing span and a run id (the ordinal of the simulated system the
span belongs to, -1 before the first build).  Spans stay in flat
arrays in memory and are written out once, after the run.

A layer's self time is the duration of its spans minus the part of
each span that its child spans cover.  Time covered by no span at all
is reported as ``other``, so the self times of all layers add up to the
traced wall clock.
"""

import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers, in report order.  ``other`` collects unmapped modules and
#: time outside every span.
LAYERS = (
    "eventq", "link", "fc", "routing", "port", "xbar", "iocache", "dram",
    "devices", "kernel", "traffic", "stats", "check", "obs", "exp",
    "build", "pci", "other",
)
LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: Module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS = (
    ("repro.sim.eventq", "eventq"),
    ("repro.sim.stats", "stats"),
    ("repro.sim.process", "kernel"),
    ("repro.pcie.link", "link"),
    ("repro.pcie.timing", "link"),
    ("repro.pcie.pkt", "link"),
    ("repro.pcie.fc", "fc"),
    ("repro.pcie.routing", "routing"),
    ("repro.pcie.switch", "routing"),
    ("repro.pcie.root_complex", "routing"),
    ("repro.pcie.vp2p", "routing"),
    ("repro.mem.port", "port"),
    ("repro.mem.packet", "port"),
    ("repro.mem.xbar", "xbar"),
    ("repro.mem.bridge", "xbar"),
    ("repro.mem.iocache", "iocache"),
    ("repro.mem.dram", "dram"),
    ("repro.devices", "devices"),
    ("repro.kernel", "kernel"),
    ("repro.drivers", "kernel"),
    ("repro.workloads", "traffic"),
    ("repro.check", "check"),
    ("repro.obs", "obs"),
    ("repro.exp", "exp"),
    ("repro.system", "build"),
    ("repro.platform", "build"),
    ("repro.pci", "pci"),
)


def layer_of_module(module: Optional[str]) -> str:
    """Map a dotted module name to its layer (``other`` if unmapped)."""
    best, best_len = "other", -1
    for prefix, layer in MODULE_LAYERS:
        if module and (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


class SpanLog:
    """The spans of one traced run, held in flat arrays.

    Span ``i`` is ``(layer[i], site[i], parent[i], run[i], start[i],
    end[i])``; ``parent`` is the index of the enclosing span or -1.
    ``sites`` names the wrapped function behind each site id.
    """

    def __init__(self):
        self.layer = array("B")
        self.site = array("B")
        self.parent = array("i")
        self.run = array("h")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.run_id = -1
        self.build_depth = 0
        self.sites: List[str] = []
        #: Accepted (``*.accepted``) and refused (``*.refusals``) port
        #: sends, in total (``port.*``) and per receiving layer.
        self.counts: Dict[str, int] = {}
        #: Systems built during the run, for their statistics.
        self.systems: list = []

    def __len__(self) -> int:
        return len(self.end)

    def site_id(self, name: str) -> int:
        """Register (or look up) a site name; returns its id."""
        if name not in self.sites:
            if len(self.sites) >= 255:
                raise ValueError("too many span sites")
            self.sites.append(name)
        return self.sites.index(name)

    def calls(self, name: str) -> int:
        """Number of spans recorded at site ``name``."""
        if name not in self.sites:
            return 0
        return self.site.count(self.sites.index(name))

    def write(self, path: str, meta: dict) -> None:
        """Write the spans: one JSON header line, then the raw arrays
        (layer, site, parent, run, start, end) in that order."""
        header = dict(meta, schema="perfbench-spans/1", spans=len(self),
                      layers=list(LAYERS), sites=self.sites,
                      arrays=[["layer", "B"], ["site", "B"], ["parent", "i"],
                              ["run", "h"], ["start", "d"], ["end", "d"]])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.layer, self.site, self.parent, self.run,
                        self.start, self.end):
                arr.tofile(fh)


def self_times(layer: Sequence[int], parent: Sequence[int],
               start: Sequence[float], end: Sequence[float],
               site: Optional[Sequence[int]] = None,
               nlayers: int = len(LAYERS)
               ) -> Tuple[List[float], float, Dict[int, float]]:
    """Per-layer self time, the total duration of root spans, and the
    inclusive duration per site id (when ``site`` is given).

    Children always have larger indices than their parent (they open
    later), so one backward pass sees every child before its parent.
    """
    n = len(end)
    covered = array("d", bytes(8 * n))
    out = [0.0] * nlayers
    inclusive: Dict[int, float] = {}
    roots = 0.0
    for i in range(n - 1, -1, -1):
        dur = end[i] - start[i]
        out[layer[i]] += dur - covered[i]
        if site is not None:
            inclusive[site[i]] = inclusive.get(site[i], 0.0) + dur
        p = parent[i]
        if p >= 0:
            covered[p] += dur
        else:
            roots += dur
    return out, roots, inclusive


# -- wrappers --------------------------------------------------------------

def _static_wrapper(log: SpanLog, fn: Callable, layer_id: int,
                    site_id: int) -> Callable:
    """Record one span of a fixed layer around every call of ``fn``."""
    stack = log.stack
    lay, sit, par, run = (log.layer.append, log.site.append,
                          log.parent.append, log.run.append)
    st, en, ends = log.start.append, log.end.append, log.end
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        idx = len(ends)
        lay(layer_id)
        sit(site_id)
        par(stack[-1] if stack else -1)
        run(log.run_id)
        en(0.0)
        stack.append(idx)
        st(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()

    return wrapper


def _owner_wrapper(log: SpanLog, fn: Callable, resolve: Callable,
                   site_id: int, offers: bool = False) -> Callable:
    """Like :func:`_static_wrapper`, with the layer taken from the call's
    receiver via ``resolve(self) -> (layer id, layer name)``.

    With ``offers``, each call is an offer to the receiving layer and
    is counted in ``log.counts`` as ``*.accepted`` or, when it returns
    a falsy value, ``*.refusals``, under ``port.*`` and under
    ``<receiving layer>.*``.
    """
    stack = log.stack
    lay, sit, par, run = (log.layer.append, log.site.append,
                          log.parent.append, log.run.append)
    st, en, ends = log.start.append, log.end.append, log.end
    clock = time.perf_counter
    counts = log.counts

    def wrapper(self, *args, **kwargs):
        layer_id, layer_name = resolve(self)
        idx = len(ends)
        lay(layer_id)
        sit(site_id)
        par(stack[-1] if stack else -1)
        run(log.run_id)
        en(0.0)
        stack.append(idx)
        st(clock())
        try:
            result = fn(self, *args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if offers:
            outcome = ".accepted" if result else ".refusals"
            for key in ("port" + outcome, layer_name + outcome):
                counts[key] = counts.get(key, 0) + 1
        return result

    return wrapper


def _build_wrapper(log: SpanLog, fn: Callable, layer_id: int,
                   site_id: int) -> Callable:
    """A build-layer span that starts a new run id when it is outermost
    and keeps the system it returns for the statistics harvest."""
    inner = _static_wrapper(log, fn, layer_id, site_id)

    def wrapper(*args, **kwargs):
        if log.build_depth == 0:
            log.run_id += 1
        log.build_depth += 1
        try:
            system = inner(*args, **kwargs)
        finally:
            log.build_depth -= 1
        if log.build_depth == 0:
            log.systems.append(system)
        return system

    return wrapper


def _type_layer_resolver(key_of: Callable) -> Callable:
    """Cache ``type -> (layer id, name)`` keyed by ``key_of(self)``,
    which returns a module name."""
    cache: Dict[object, Tuple[int, str]] = {}

    def resolve(self):
        key, module = key_of(self)
        hit = cache.get(key)
        if hit is None:
            name = layer_of_module(module)
            hit = cache[key] = (LAYER_INDEX[name], name)
        return hit

    return resolve


def _event_key(event):
    cls = type(event)
    return cls, cls.__module__


def _callback_key(event):
    callback = event._callback
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        cls = type(owner)
        return cls, cls.__module__
    module = getattr(callback, "__module__", None)
    return module, module


def _generator_key(process):
    code = process._generator.gi_code
    frame = process._generator.gi_frame
    return code, frame.f_globals.get("__name__") if frame else None


def _peer_owner_key(port):
    cls = type(port.peer.owner)
    return cls, cls.__module__


def _all_subclasses(cls) -> Iterable[type]:
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


class Tracing:
    """Installs the span wrappers; a context manager.

    On exit every patched attribute is restored to the exact object it
    held before, so a following untraced run executes the unwrapped
    program.
    """

    def __init__(self, log: SpanLog):
        self.log = log
        self._patches: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _method(self, cls, attr: str, layer: str, site: str = None) -> None:
        self._patch(cls, attr, _static_wrapper(
            self.log, cls.__dict__[attr], LAYER_INDEX[layer],
            self.log.site_id(site or f"{cls.__name__}.{attr}")))

    def __enter__(self) -> "Tracing":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        """Patch every entry point; a missing one raises, so a renamed
        method cannot silently drop its spans."""
        from repro.check.checker import InvariantChecker
        from repro.exp.engine import SweepEngine
        from repro.mem.port import MasterPort, SlavePort
        from repro.obs.trace import Tracer
        from repro.pci.enumeration import Enumerator
        from repro.pcie.fc import CreditLedger
        from repro.pcie.link import PcieLinkInterface, UnidirectionalLink
        from repro.sim import eventq, stats
        from repro.sim.process import Process
        from repro.system import topology

        log = self.log
        # Event queues: whichever classes the eventq module defines.
        for obj in list(vars(eventq).values()):
            if isinstance(obj, type) and "run" in obj.__dict__:
                for attr in ("run", "schedule", "deschedule"):
                    self._method(obj, attr, "eventq", f"EventQueue.{attr}")
        # Event.process, attributed to the owner's module.
        event_site = log.site_id("Event.process")
        for cls in _all_subclasses(eventq.Event):
            if "process" not in cls.__dict__ or cls is eventq.Event:
                continue
            key = _callback_key if cls is eventq.CallbackEvent else _event_key
            self._patch(cls, "process", _owner_wrapper(
                log, cls.__dict__["process"], _type_layer_resolver(key),
                event_site))
        # Software processes, attributed to their generator's module.
        self._patch(Process, "_resume", _owner_wrapper(
            log, Process.__dict__["_resume"],
            _type_layer_resolver(_generator_key),
            log.site_id("Process.resume")))
        # Timing ports, attributed to the receiving component.
        resolve_peer = _type_layer_resolver(_peer_owner_key)
        for cls, attr, counted in (
                (MasterPort, "send_timing_req", True),
                (SlavePort, "send_timing_resp", True),
                (SlavePort, "send_retry_req", False),
                (MasterPort, "send_retry_resp", False)):
            self._patch(cls, attr, _owner_wrapper(
                log, cls.__dict__[attr], resolve_peer,
                log.site_id(f"{cls.__name__}.{attr}"), counted))
        self._method(UnidirectionalLink, "send", "link")
        self._method(PcieLinkInterface, "receive_from_link", "link")
        for attr in ("tx_headroom", "consume", "advertise", "rx_accept",
                     "rx_drain", "rx_limit", "stall_begin", "stall_end",
                     "stalled"):
            self._method(CreditLedger, attr, "fc")
        self._method(stats.Scalar, "inc", "stats", "stats.update")
        for cls in (stats.Average, stats.Distribution, stats.Quantiles):
            self._method(cls, "sample", "stats", "stats.update")
        self._method(Tracer, "emit", "obs")
        for attr in list(InvariantChecker.__dict__):
            if attr.startswith(("on_", "pre_", "post_", "link_", "check_")):
                self._method(InvariantChecker, attr, "check")
        self._method(Enumerator, "enumerate", "pci")
        self._method(SweepEngine, "run", "exp")
        # build_* are module functions other modules import by name:
        # rebind every reference to them.
        build_site = log.site_id("build")
        for name in [n for n in vars(topology) if n.startswith("build_")]:
            original = getattr(topology, name)
            wrapper = _build_wrapper(log, original, LAYER_INDEX["build"],
                                     build_site)
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(name) is original:
                    self._patch(module, name, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patches)
