"""Unit tests for the event queue."""

import pytest

from repro.sim.eventq import CallbackEvent, Event, EventQueue


class RecordingEvent(Event):
    def __init__(self, log, tag, **kwargs):
        super().__init__(**kwargs)
        self.log = log
        self.tag = tag

    def process(self):
        self.log.append(self.tag)


def test_events_fire_in_tick_order():
    q = EventQueue()
    log = []
    q.schedule(RecordingEvent(log, "c"), 30)
    q.schedule(RecordingEvent(log, "a"), 10)
    q.schedule(RecordingEvent(log, "b"), 20)
    q.run()
    assert log == ["a", "b", "c"]
    assert q.curtick == 30


def test_same_tick_orders_by_priority_then_insertion():
    q = EventQueue()
    log = []
    q.schedule(RecordingEvent(log, "low", priority=10), 5)
    q.schedule(RecordingEvent(log, "first", priority=0), 5)
    q.schedule(RecordingEvent(log, "second", priority=0), 5)
    q.run()
    assert log == ["first", "second", "low"]


def test_schedule_in_past_raises():
    q = EventQueue()
    q.schedule_callback(10, lambda: None)
    q.run()
    assert q.curtick == 10
    with pytest.raises(ValueError):
        q.schedule(CallbackEvent(lambda: None), 5)


def test_double_schedule_raises():
    q = EventQueue()
    ev = CallbackEvent(lambda: None)
    q.schedule(ev, 10)
    with pytest.raises(RuntimeError):
        q.schedule(ev, 20)


def test_deschedule_prevents_firing():
    q = EventQueue()
    log = []
    ev = RecordingEvent(log, "x")
    q.schedule(ev, 10)
    q.deschedule(ev)
    q.run()
    assert log == []
    assert not ev.scheduled


def test_deschedule_unscheduled_raises():
    q = EventQueue()
    with pytest.raises(RuntimeError):
        q.deschedule(CallbackEvent(lambda: None))


def test_reschedule_moves_event():
    q = EventQueue()
    log = []
    ev = RecordingEvent(log, "x")
    q.schedule(ev, 10)
    q.reschedule(ev, 50)
    q.schedule(RecordingEvent(log, "y"), 20)
    q.run()
    assert log == ["y", "x"]
    assert q.curtick == 50


def test_event_can_be_rescheduled_after_firing():
    q = EventQueue()
    log = []
    ev = RecordingEvent(log, "x")
    q.schedule(ev, 10)
    q.run()
    q.schedule(ev, 20)
    q.run()
    assert log == ["x", "x"]


def test_when_tracks_the_scheduled_tick():
    """``when`` is read from the live queue entry: the tick while
    scheduled, None once fired (already inside process) or descheduled,
    and it follows every reschedule."""
    q = EventQueue()
    seen = []
    ev = CallbackEvent(lambda: seen.append(ev.when))
    assert ev.when is None
    q.schedule(ev, 10)
    assert ev.when == 10 and ev.scheduled
    q.reschedule(ev, 40)
    assert ev.when == 40
    q.reschedule(ev, 25)
    assert ev.when == 25
    q.run()
    assert seen == [None]
    assert ev.when is None and not ev.scheduled
    q.schedule_after(ev, 5)
    assert ev.when == 30
    assert "@ 30" in repr(ev)
    q.deschedule(ev)
    assert ev.when is None
    assert "@ None" in repr(ev)


def test_when_after_restore_is_the_restored_tick():
    q = EventQueue()
    ev = CallbackEvent(lambda: None)
    q.load_state_dict({"curtick": 5, "next_seq": 9, "events_processed": 0},
                      [(70, ev.priority, 3, ev)])
    assert ev.when == 70
    q.run()
    assert ev.when is None and q.curtick == 70


def test_run_until_limit_advances_clock_to_limit():
    q = EventQueue()
    log = []
    q.schedule(RecordingEvent(log, "a"), 10)
    q.schedule(RecordingEvent(log, "b"), 100)
    end = q.run(until=50)
    assert log == ["a"]
    assert end == 50
    q.run()
    assert log == ["a", "b"]


def test_events_scheduled_during_processing_fire():
    q = EventQueue()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            q.schedule_callback(10, lambda: chain(n + 1))

    q.schedule_callback(0, lambda: chain(0))
    q.run()
    assert log == [0, 1, 2, 3]
    assert q.curtick == 30


def test_stop_from_within_event():
    q = EventQueue()
    log = []
    q.schedule_callback(10, lambda: (log.append("a"), q.stop()))
    q.schedule_callback(20, lambda: log.append("b"))
    q.run()
    assert log == ["a"]
    q.run()
    assert log == ["a", "b"]


def test_max_events_guard():
    q = EventQueue()
    log = []
    for i in range(10):
        q.schedule(RecordingEvent(log, i), i)
    q.run(max_events=4)
    assert log == [0, 1, 2, 3]


def test_len_excludes_squashed():
    q = EventQueue()
    ev = CallbackEvent(lambda: None)
    q.schedule(ev, 10)
    q.schedule_callback(20, lambda: None)
    assert len(q) == 2
    q.deschedule(ev)
    assert len(q) == 1


def test_next_tick_and_empty():
    q = EventQueue()
    assert q.empty()
    assert q.next_tick() is None
    ev = CallbackEvent(lambda: None)
    q.schedule(ev, 42)
    assert q.next_tick() == 42
    q.deschedule(ev)
    assert q.empty()


def test_events_processed_counter():
    q = EventQueue()
    for i in range(5):
        q.schedule_callback(i, lambda: None)
    q.run()
    assert q.events_processed == 5


# ---------------------------------------------------------------------------
# Recycled events: a squashed entry must never fire a stale payload.
# ---------------------------------------------------------------------------
class _RecycledEvent(Event):
    """Minimal model of the link/port recycled events: one instance,
    mutable payload slot, reused as soon as ``scheduled`` is False."""

    __slots__ = ("payload", "log")

    def __init__(self, log):
        super().__init__(name="recycled")
        self.payload = None
        self.log = log

    def process(self):
        self.log.append(self.payload)


def test_recycled_event_does_not_fire_stale_payload_after_squash():
    q = EventQueue()
    log = []
    event = _RecycledEvent(log)
    event.payload = "stale"
    q.schedule(event, 100)
    q.deschedule(event)
    # Reuse the instance immediately — same tick as the squashed entry.
    event.payload = "fresh"
    q.schedule(event, 100)
    q.run()
    assert log == ["fresh"]


def test_recycled_event_squashed_mid_run_fires_only_fresh_payload():
    # The hazard inside a run: an earlier event at the same tick
    # deschedules + reschedules (recycles) a later one whose squashed
    # entry is still sitting in the queue.
    q = EventQueue()
    log = []
    recycled = _RecycledEvent(log)

    def recycle():
        q.deschedule(recycled)
        recycled.payload = "fresh"
        q.schedule(recycled, q.curtick)  # same tick, after the squashed entry

    recycled.payload = "stale"
    q.schedule_callback(50, recycle)
    q.schedule(recycled, 50)
    q.run()
    assert log == ["fresh"]


def test_recycled_event_reusable_after_firing():
    q = EventQueue()
    log = []
    event = _RecycledEvent(log)
    event.payload = 1
    q.schedule(event, 10)
    q.run()
    assert not event.scheduled
    event.payload = 2
    q.schedule(event, q.curtick + 5)
    q.run()
    assert log == [1, 2]


def test_deep_future_events_fire_after_near_ones():
    # Far-future work (replay timeouts, dd's startup overhead) scheduled
    # before near-term work still fires in tick order, and the clock
    # lands exactly on the last event.
    order = []
    q = EventQueue()
    for tag, when in (("far", 10**13 + 7), ("near", 3), ("mid", 10**8)):
        q.schedule(RecordingEvent(order, tag, name=tag), when)
    q.run()
    assert order == ["near", "mid", "far"]
    assert q.curtick == 10**13 + 7
