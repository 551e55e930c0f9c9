"""Unit tests for the tracer and its sinks."""

import io
import json

import pytest

from repro.obs.trace import (
    TRACE_SCHEMA,
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    Tracer,
    encode_event,
    encode_header,
    load_trace,
)


def test_tracer_disabled_until_a_sink_attaches():
    tracer = Tracer()
    assert not tracer.enabled
    sink = tracer.attach(MemorySink())
    assert tracer.enabled
    tracer.detach(sink)
    assert not tracer.enabled


def test_emit_fans_out_to_every_sink():
    tracer = Tracer()
    a, b = MemorySink(), MemorySink()
    tracer.attach(a)
    tracer.attach(b)
    tracer.emit(100, "link", "sim.link.up_if", "tlp_tx", tlp=0, seq=0)
    assert a.events == b.events
    assert a.events == [
        {"t": 100, "cat": "link", "comp": "sim.link.up_if", "ev": "tlp_tx",
         "tlp": 0, "seq": 0}
    ]


def test_category_filter_drops_other_categories():
    tracer = Tracer(categories=("link",))
    sink = tracer.attach(MemorySink())
    tracer.emit(0, "eventq", "sim.eventq", "dispatch", name="x", pri=0)
    tracer.emit(1, "link", "sim.link.up_if", "dllp_rx", kind="ack", seq=0)
    assert [ev["cat"] for ev in sink.events] == ["link"]


def test_tlp_ids_are_dense_and_tracer_local():
    tracer_a, tracer_b = Tracer(), Tracer()
    # Wildly different global req_ids map to the same dense sequence.
    assert [tracer_a.tlp_id(r) for r in (900, 17, 900, 42)] == [0, 1, 0, 2]
    assert [tracer_b.tlp_id(r) for r in (1234, 5678)] == [0, 1]


def test_encoding_is_canonical():
    ev = {"t": 5, "cat": "link", "comp": "c", "ev": "tlp_tx", "seq": 1}
    # Sorted keys, no whitespace: byte-stable regardless of insert order.
    assert encode_event(ev) == (
        '{"cat":"link","comp":"c","ev":"tlp_tx","seq":1,"t":5}'
    )
    assert json.loads(encode_header({"k": "v"})) == {
        "schema": TRACE_SCHEMA, "meta": {"k": "v"},
    }


def test_memory_sink_to_jsonl_matches_jsonl_sink():
    events = [
        {"t": 0, "cat": "link", "comp": "c", "ev": "tlp_tx", "seq": 0},
        {"t": 7, "cat": "link", "comp": "c", "ev": "tlp_deliver", "seq": 0},
    ]
    memory = MemorySink()
    buffer = io.StringIO()
    stream = JsonlSink(buffer, meta={"run": 1})
    for ev in events:
        memory.record(ev)
        stream.record(ev)
    stream.close()
    assert memory.to_jsonl(meta={"run": 1}) == buffer.getvalue()


def test_jsonl_sink_owns_paths_but_not_file_objects(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    sink.record({"t": 0, "cat": "link", "comp": "c", "ev": "tlp_tx"})
    sink.close()
    sink.close()  # idempotent
    header, events = load_trace(path)
    assert header["schema"] == TRACE_SCHEMA
    assert len(events) == 1 and events[0]["ev"] == "tlp_tx"


def test_load_trace_rejects_missing_or_foreign_schema():
    with pytest.raises(ValueError):
        load_trace(['{"not_schema": 1}'])
    with pytest.raises(ValueError):
        load_trace(['{"schema": "somebody-else/9"}'])
    with pytest.raises(ValueError):
        load_trace([])


def test_chrome_sink_emits_instants_and_counters():
    sink = ChromeTraceSink()
    sink.record({"t": 2_000_000, "cat": "engine", "comp": "sim.rc.up",
                 "ev": "ingress", "tlp": 0, "pool": 3})
    sink.record({"t": 3_000_000, "cat": "link", "comp": "sim.link.up_if",
                 "ev": "tlp_tx", "tlp": 0, "seq": 0})
    doc = sink.document()
    phases = [ev["ph"] for ev in doc["traceEvents"]]
    # Two thread_name metadata records, one counter, two instants.
    assert phases.count("M") == 2
    assert phases.count("C") == 1
    assert phases.count("i") == 2
    counter = next(ev for ev in doc["traceEvents"] if ev["ph"] == "C")
    assert counter["name"] == "sim.rc.up.pool"
    assert counter["args"] == {"pool": 3}
    instant = next(ev for ev in doc["traceEvents"] if ev["ph"] == "i")
    assert instant["ts"] == 2.0  # 2_000_000 ps -> 2 us
    # Distinct components land on distinct "threads".
    tids = {ev["tid"] for ev in doc["traceEvents"] if ev["ph"] == "i"}
    assert len(tids) == 2


def test_chrome_sink_write_is_valid_json(tmp_path):
    sink = ChromeTraceSink()
    sink.record({"t": 0, "cat": "link", "comp": "c", "ev": "tlp_tx"})
    path = str(tmp_path / "chrome.json")
    sink.write(path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["otherData"]["schema"] == TRACE_SCHEMA


def test_close_closes_sinks_and_disables():
    closed = []

    class ClosingSink(MemorySink):
        def close(self):
            closed.append(self)

    tracer = Tracer()
    tracer.attach(ClosingSink())
    tracer.attach(ClosingSink())
    tracer.close()
    assert len(closed) == 2
    assert not tracer.enabled and not tracer.sinks


def test_window_keeps_raw_emits_and_builds_dicts_on_read():
    tracer = Tracer(categories=("link",))
    tracer.keep_window(2)
    assert tracer.enabled and not tracer.sinks
    tracer.emit(1, "link", "a", "tlp_tx", tlp=0, seq=0)
    tracer.emit(2, "eventq", "q", "dispatch", name="x", pri=0)
    tracer.emit(3, "link", "b", "dllp_rx", seq=0)
    tracer.emit(4, "link", "c", "tlp_deliver", tlp=0, seq=0)
    events = tracer.recent_events()
    assert events == [
        {"t": 3, "cat": "link", "comp": "b", "ev": "dllp_rx", "seq": 0},
        {"t": 4, "cat": "link", "comp": "c", "ev": "tlp_deliver", "tlp": 0,
         "seq": 0},
    ]
    assert list(events[1]) == ["t", "cat", "comp", "ev", "tlp", "seq"]
    tracer.drop_window()
    assert not tracer.enabled and tracer.recent_events() == []


def test_detach_and_close_leave_a_kept_window_enabled():
    tracer = Tracer()
    tracer.keep_window(4)
    sink = tracer.attach(MemorySink())
    tracer.detach(sink)
    assert tracer.enabled
    tracer.attach(MemorySink())
    tracer.close()
    assert tracer.enabled and not tracer.sinks
    tracer.emit(5, "link", "a", "tlp_tx")
    assert tracer.recent_events()[-1]["t"] == 5
