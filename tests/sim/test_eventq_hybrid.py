"""Property tests: EventQueue against a brute-force model of dispatch order.

``_ModelQueue`` below is the executable specification: a flat mapping
of pending events scanned for its ``(tick, priority, insertion-seq)``
minimum on every pop.  These tests drive it and the heap
:class:`repro.sim.eventq.EventQueue` with identical randomized
schedule/deschedule/reschedule workloads (fixed seeds) and assert the
two dispatch sequences — tags, ticks, and therefore dispatch order —
are identical, including under ``until`` and ``max_events`` stepping,
and that ``len``/``empty``/``next_tick`` agree at every step.

The workloads mix near and far delays with lazily squashed entries,
so the heap's squashed-head skipping is exercised throughout.
"""

import random

import pytest

from repro.sim.eventq import Event, EventQueue

# Delay distribution for randomized workloads: same-tick and adjacent
# events interleave with ones many orders of magnitude further out, so
# every run mixes same-tick priority ties with deep-future work.
_SPAN = 64 << 20
_DELAY_CHOICES = (
    0,              # same tick as the scheduler
    1,              # adjacent tick
    37,
    1 << 20,
    17 << 20,
    _SPAN - 1,
    _SPAN,
    5 * _SPAN + 3,  # deep future
)


class _ModelQueue:
    """Brute-force dispatch-order model with EventQueue's driving API.

    Pending events map to their ``(when, priority, seq)`` key; every
    pop scans for the minimum.  Slow and obviously correct.
    """

    def __init__(self):
        self.curtick = 0
        self.events_processed = 0
        self._pending = {}
        self._next_seq = 0

    def schedule(self, event, when):
        assert when >= self.curtick
        assert event not in self._pending
        self._pending[event] = (when, event.priority, self._next_seq)
        self._next_seq += 1
        return event

    def deschedule(self, event):
        del self._pending[event]

    def reschedule(self, event, when):
        self._pending.pop(event, None)
        return self.schedule(event, when)

    def __len__(self):
        return len(self._pending)

    def empty(self):
        return not self._pending

    def _head(self):
        if not self._pending:
            return None
        return min(self._pending.items(), key=lambda item: item[1])

    def next_tick(self):
        head = self._head()
        return None if head is None else head[1][0]

    def service_one(self):
        head = self._head()
        if head is None:
            return False
        event, (when, __, __) = head
        del self._pending[event]
        self.curtick = when
        self.events_processed += 1
        event.process()
        return True

    def run(self, until=None, max_events=None):
        serviced = 0
        while self._pending:
            if until is not None and self.next_tick() > until:
                self.curtick = until
                break
            if max_events is not None and serviced == max_events:
                break
            self.service_one()
            serviced += 1
        return self.curtick


class _WorkloadEvent(Event):
    """An event that reports back to the workload driver when it fires."""

    __slots__ = ("driver", "tag")

    def __init__(self, driver, tag, priority):
        super().__init__(priority=priority, name=f"wl{tag}")
        self.driver = driver
        self.tag = tag

    def process(self):
        self.driver.fired(self)


class _Workload:
    """Drives one queue with a seed-determined reactive workload.

    Every fired event logs ``(tag, tick)`` and then — drawn from the
    driver's PRNG — schedules fresh events, deschedules or reschedules
    pending ones.  Two drivers with the same seed consume their PRNGs
    in dispatch order, so their logs are byte-identical exactly when
    the two queues dispatch identically; any divergence shows up as a
    log mismatch.
    """

    def __init__(self, queue, seed, budget=400):
        self.q = queue
        self.rng = random.Random(seed)
        self.log = []
        self.pending = []
        self.budget = budget
        self.next_tag = 0
        for __ in range(16):
            self._spawn(base=0)

    def _spawn(self, base):
        tag = self.next_tag
        self.next_tag += 1
        priority = self.rng.choice((-10, 0, 0, 0, 7))
        when = base + self.rng.choice(_DELAY_CHOICES)
        event = _WorkloadEvent(self, tag, priority)
        self.q.schedule(event, when)
        self.pending.append(event)
        return event

    def fired(self, event):
        self.pending.remove(event)
        self.log.append((event.tag, self.q.curtick))
        rng = self.rng
        if self.budget > 0:
            for __ in range(rng.randrange(0, 3)):
                self.budget -= 1
                self._spawn(base=self.q.curtick)
        if self.pending and rng.random() < 0.25:
            victim = self.pending[rng.randrange(len(self.pending))]
            if rng.random() < 0.5:
                self.q.deschedule(victim)
                self.pending.remove(victim)
            else:
                when = self.q.curtick + rng.choice(_DELAY_CHOICES)
                self.q.reschedule(victim, when)


def _run_pair(seed, runner):
    """Run the same seeded workload on the model and the heap via ``runner``."""
    model = _Workload(_ModelQueue(), seed)
    heap = _Workload(EventQueue(), seed)
    runner(model.q)
    runner(heap.q)
    assert model.log, "workload fired nothing — test is vacuous"
    assert heap.log == model.log
    assert heap.q.curtick == model.q.curtick
    assert heap.q.events_processed == model.q.events_processed
    return model, heap


@pytest.mark.parametrize("seed", range(8))
def test_randomized_dispatch_matches_reference(seed):
    _run_pair(seed, lambda q: q.run())


@pytest.mark.parametrize("seed", range(4))
def test_randomized_dispatch_matches_under_until_steps(seed):
    def stepped(q):
        # March time forward in fixed strides so runs stop between
        # same-tick groups and in long idle gaps; the final unbounded
        # run drains.
        for limit in range(0, 40 * _SPAN, 3 * _SPAN + 12_345):
            q.run(until=limit)
        q.run()

    _run_pair(seed, stepped)


@pytest.mark.parametrize("seed", range(4))
def test_randomized_dispatch_matches_under_max_events_steps(seed):
    def stepped(q):
        for __ in range(1000):
            q.run(max_events=7)
            if q.empty():
                break
        q.run()

    _run_pair(seed, stepped)


@pytest.mark.parametrize("seed", range(4))
def test_len_and_next_tick_track_reference(seed):
    model = _Workload(_ModelQueue(), seed)
    heap = _Workload(EventQueue(), seed)
    for __ in range(1000):
        assert len(heap.q) == len(model.q)
        assert heap.q.empty() == model.q.empty()
        assert heap.q.next_tick() == model.q.next_tick()
        if heap.q.empty():
            break
        assert heap.q.service_one() == model.q.service_one()
        assert heap.log == model.log
    assert heap.q.empty() and model.q.empty()
