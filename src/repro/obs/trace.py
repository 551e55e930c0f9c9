"""TLP-lifecycle tracing.

The simulator's end-of-run statistics say *how much* replaying,
refusing and buffering happened; a trace says *when and to whom*.  A
:class:`Tracer` hangs off every :class:`~repro.sim.simobject.Simulator`
is disabled until a :class:`TraceSink` is attached or a context window
is kept (the invariant checker keeps one while armed), so the hot paths
pay only a single attribute load and branch (``if trc.enabled:``) when
tracing is off.  The window holds the raw arguments of the most recent
:meth:`Tracer.emit` calls and builds event dicts only when read, so a
checker-armed run that never reports a violation never builds one.

Trace events are flat dicts with a handful of reserved keys:

* ``t`` — the tick the event was observed at;
* ``cat`` — a coarse category (``link``, ``engine``, ``xbar``,
  ``cache``, ``mem``, ``eventq``) used for filtering;
* ``comp`` — the full dotted name of the emitting component;
* ``ev`` — the event kind (``tlp_tx``, ``dllp_rx``, ``ingress``, …);

plus free-form event fields (``tlp``, ``seq``, ``replay``, ``pool``…).
TLP identity in a trace is a *tracer-local* dense id, allocated the
first time a packet's ``req_id`` is seen: packet ids come from a
process-global counter, so remapping them is what makes traces from two
fresh :class:`Simulator` instances byte-identical (the golden-trace
regression suite depends on this).

Serialization is canonical — sorted keys, no whitespace — so that two
runs producing the same events produce the same *bytes*.
"""

import json
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, TextIO, Tuple, Union

#: Bumped whenever the event vocabulary or the reserved keys change in a
#: way consumers could notice.  Policy: additive fields do not bump the
#: version; renames, removals and semantic changes do.
TRACE_SCHEMA = "repro-trace/1"


def encode_event(event: dict) -> str:
    """Canonical single-line JSON encoding of one trace event."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def encode_header(meta: Optional[dict] = None) -> str:
    """The first line of every serialized trace."""
    header = {"schema": TRACE_SCHEMA}
    if meta:
        header["meta"] = meta
    return encode_event(header)


class TraceSink:
    """Where trace events go.  Subclasses override :meth:`record`."""

    def record(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources.  Idempotent."""


class MemorySink(TraceSink):
    """Keeps events as dicts in memory — the test-suite workhorse."""

    def __init__(self):
        self.events: List[dict] = []

    def record(self, event: dict) -> None:
        self.events.append(event)

    def to_jsonl(self, meta: Optional[dict] = None) -> str:
        """The exact text a :class:`JsonlSink` would have produced."""
        lines = [encode_header(meta)]
        lines.extend(encode_event(ev) for ev in self.events)
        return "\n".join(lines) + "\n"


class JsonlSink(TraceSink):
    """Streams one canonical JSON object per line to a file.

    Accepts either a path (opened and owned by the sink) or an open
    text-mode file object (flushed but not closed by :meth:`close`).
    """

    def __init__(self, target: Union[str, TextIO],
                 meta: Optional[dict] = None):
        if isinstance(target, str):
            self._fh: TextIO = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._fh.write(encode_header(meta) + "\n")

    def record(self, event: dict) -> None:
        self._fh.write(encode_event(event) + "\n")

    def close(self) -> None:
        if self._fh is None:
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()
        self._fh = None


class ChromeTraceSink(TraceSink):
    """Collects events in the Chrome ``trace_event`` format.

    :meth:`write` produces a JSON document loadable by
    ``chrome://tracing`` and Perfetto.  Every trace event becomes a
    thread-scoped instant event on a per-component "thread"; numeric
    occupancy fields (``pool``, ``inflight``, ``qlen``) additionally
    become counter tracks so queue depths render as area charts.
    """

    #: Event fields rendered as counter tracks.
    COUNTER_FIELDS = ("pool", "inflight", "qlen")

    def __init__(self):
        self._events: List[dict] = []
        self._tids: Dict[str, int] = {}

    def _tid(self, comp: str) -> int:
        tid = self._tids.get(comp)
        if tid is None:
            tid = self._tids[comp] = len(self._tids)
        return tid

    def record(self, event: dict) -> None:
        comp = event["comp"]
        ts = event["t"] / 1e6  # ticks are picoseconds; ts is microseconds
        args = {k: v for k, v in event.items()
                if k not in ("t", "cat", "comp", "ev")}
        self._events.append({
            "name": event["ev"], "cat": event["cat"], "ph": "i", "s": "t",
            "ts": ts, "pid": 0, "tid": self._tid(comp), "args": args,
        })
        for field in self.COUNTER_FIELDS:
            if field in event:
                self._events.append({
                    "name": f"{comp}.{field}", "cat": event["cat"],
                    "ph": "C", "ts": ts, "pid": 0,
                    "args": {field: event[field]},
                })

    def document(self) -> dict:
        metadata = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": comp}}
            for comp, tid in self._tids.items()
        ]
        return {
            "traceEvents": metadata + self._events,
            "displayTimeUnit": "ns",
            "otherData": {"schema": TRACE_SCHEMA},
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.document(), fh, sort_keys=True)


class Tracer:
    """The per-:class:`Simulator` trace-point multiplexer.

    Disabled (``enabled`` False) until a sink is attached or a context
    window is kept; every instrumented hot path guards its :meth:`emit`
    call on ``enabled``, which is the whole zero-overhead-when-disabled
    story.  Components cache their simulator's tracer at construction,
    so a Simulator's tracer instance is never replaced — only attached
    to or detached from.

    Args:
        categories: when not None, only events whose ``cat`` is in this
            collection are recorded (``eventq`` dispatch tracing is loud;
            most consumers want only ``link``/``engine``).
    """

    def __init__(self, categories: Optional[Iterable[str]] = None):
        self.sinks: List[TraceSink] = []
        self.enabled = False
        self.categories = frozenset(categories) if categories is not None else None
        self._tlp_ids: Dict[int, int] = {}
        self._next_tlp_id = 0
        # Raw (t, cat, comp, ev, fields) tuples of the latest emits.
        self._window: Optional[Deque[Tuple[int, str, str, str, dict]]] = None

    def _update_enabled(self) -> None:
        self.enabled = bool(self.sinks) or self._window is not None

    # -- sink management ---------------------------------------------------
    def attach(self, sink: TraceSink) -> TraceSink:
        self.sinks.append(sink)
        self.enabled = True
        return sink

    def detach(self, sink: TraceSink) -> None:
        self.sinks.remove(sink)
        self._update_enabled()

    def close(self) -> None:
        """Close and detach every sink; a kept window stays live."""
        for sink in self.sinks:
            sink.close()
        self.sinks.clear()
        self._update_enabled()

    # -- context window ----------------------------------------------------
    def keep_window(self, maxlen: int) -> None:
        """Start keeping the latest ``maxlen`` events, from empty."""
        self._window = deque(maxlen=maxlen)
        self.enabled = True

    def drop_window(self) -> None:
        """Stop keeping the window and discard its events."""
        self._window = None
        self._update_enabled()

    def recent_events(self) -> List[dict]:
        """The window's events as trace dicts, oldest first (empty when
        no window is kept).  Built here, not in :meth:`emit`."""
        if self._window is None:
            return []
        return [{"t": t, "cat": cat, "comp": comp, "ev": ev, **fields}
                for t, cat, comp, ev, fields in self._window]

    # -- identity ----------------------------------------------------------
    def tlp_id(self, req_id: int) -> int:
        """Dense, run-local id for a packet (see module docstring).

        Allocation uses an explicit counter rather than ``len(dict)``
        so a checkpoint can carry the counter forward without carrying
        the ``req_id`` mapping: a restored process's packets get fresh
        process-global ``req_id`` values, so stale mapping keys could
        otherwise collide with them and hand out old ids.
        """
        tid = self._tlp_ids.get(req_id)
        if tid is None:
            tid = self._tlp_ids[req_id] = self._next_tlp_id
            self._next_tlp_id += 1
        return tid

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """The sequence counter a restored run must continue from."""
        return {"next_tlp_id": self._next_tlp_id}

    def load_state_dict(self, state: dict) -> None:
        """Continue dense-id allocation where the captured run stopped.

        The ``req_id -> tlp_id`` mapping itself is deliberately dropped:
        it keys on process-global packet ids that a restored process
        re-allocates from scratch (see :meth:`tlp_id`)."""
        self._tlp_ids = {}
        self._next_tlp_id = state["next_tlp_id"]

    # -- emission ----------------------------------------------------------
    def emit(self, t: int, cat: str, comp: str, ev: str, **fields) -> None:
        if self.categories is not None and cat not in self.categories:
            return
        if self._window is not None:
            self._window.append((t, cat, comp, ev, fields))
        if self.sinks:
            event = {"t": t, "cat": cat, "comp": comp, "ev": ev}
            event.update(fields)
            for sink in self.sinks:
                sink.record(event)


def load_trace(source: Union[str, Iterable[str]]):
    """Parse a JSONL trace into ``(header, events)``.

    ``source`` is a path or an iterable of lines (e.g. an open file or
    ``MemorySink.to_jsonl().splitlines()``).
    """
    if isinstance(source, str):
        with open(source) as fh:
            lines = fh.read().splitlines()
    else:
        lines = [line for line in source]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = json.loads(lines[0])
    if "schema" not in header:
        raise ValueError("trace has no schema header line")
    if header["schema"] != TRACE_SCHEMA:
        raise ValueError(
            f"unsupported trace schema {header['schema']!r} "
            f"(this reader understands {TRACE_SCHEMA!r})"
        )
    events = [json.loads(line) for line in lines[1:]]
    return header, events
