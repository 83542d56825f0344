"""Event queue: ordering, determinism, run limits, and a differential
check of the cycle-bucketed queue against a plain ``(time, seq)`` heap."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EventQueue


class TestScheduling:
    def test_fires_in_time_order(self):
        ev = EventQueue()
        log = []
        ev.schedule(30, log.append, "c")
        ev.schedule(10, log.append, "a")
        ev.schedule(20, log.append, "b")
        ev.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        ev = EventQueue()
        log = []
        for tag in "abcde":
            ev.schedule(5, log.append, tag)
        ev.run()
        assert log == list("abcde")

    def test_now_advances(self):
        ev = EventQueue()
        seen = []
        ev.schedule(7, lambda: seen.append(ev.now))
        ev.schedule(19, lambda: seen.append(ev.now))
        ev.run()
        assert seen == [7, 19]

    def test_zero_delay_allowed(self):
        ev = EventQueue()
        fired = []
        ev.schedule(0, fired.append, 1)
        ev.run()
        assert fired == [1]

    def test_negative_delay_rejected(self):
        ev = EventQueue()
        with pytest.raises(ValueError):
            ev.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        ev = EventQueue()
        ev.schedule(10, lambda: None)
        ev.run()
        with pytest.raises(ValueError):
            ev.schedule_at(5, lambda: None)

    def test_events_scheduled_during_run(self):
        ev = EventQueue()
        log = []

        def first():
            log.append("first")
            ev.schedule(5, lambda: log.append("nested"))

        ev.schedule(1, first)
        ev.run()
        assert log == ["first", "nested"]


class TestRunLimits:
    def test_max_events(self):
        ev = EventQueue()
        for _ in range(10):
            ev.schedule(1, lambda: None)
        fired = ev.run(max_events=4)
        assert fired == 4
        assert ev.pending == 6

    def test_max_cycles(self):
        ev = EventQueue()
        log = []
        ev.schedule(10, log.append, "early")
        ev.schedule(100, log.append, "late")
        ev.run(max_cycles=50)
        assert log == ["early"]
        assert ev.pending == 1

    def test_max_cycles_advances_now_to_cap(self):
        # When the run stops at the cycle cap, simulated time must land on
        # the cap itself, not on the last event that happened to fire —
        # callers add wall-clock-style deltas to ``now`` after a capped run.
        ev = EventQueue()
        ev.schedule(10, lambda: None)
        ev.schedule(100, lambda: None)
        ev.run(max_cycles=50)
        assert ev.now == 50
        assert ev.pending == 1

    def test_max_cycles_never_rewinds_now(self):
        ev = EventQueue()
        ev.schedule(40, lambda: None)
        ev.schedule(100, lambda: None)
        ev.run(max_cycles=50)
        assert ev.now == 50
        # A cap below the current time must not move the clock backwards.
        ev.schedule(60, lambda: None)
        ev.run(max_cycles=20)
        assert ev.now == 50

    def test_step_empty_returns_false(self):
        assert EventQueue().step() is False

    def test_processed_counter(self):
        ev = EventQueue()
        for _ in range(3):
            ev.schedule(1, lambda: None)
        ev.run()
        assert ev.processed == 3


class TestEarlyExitMidCycle:
    def test_exception_leaves_rest_of_cycle_pending_in_order(self):
        ev = EventQueue()
        log = []

        def boom():
            log.append("boom")
            ev.schedule(0, log.append, "nested")
            raise RuntimeError("boom")

        ev.schedule_at(5, log.append, "a")
        ev.schedule_at(5, boom)
        ev.schedule_at(5, log.append, "c")
        ev.schedule_at(5, log.append, "d")
        ev.schedule_at(6, log.append, "later")
        with pytest.raises(RuntimeError):
            ev.run()
        assert log == ["a", "boom"]
        assert ev.processed == 2  # the raising event counts as fired
        assert ev.pending == 4
        assert ev.now == 5
        assert ev.run() == 4
        assert log == ["a", "boom", "c", "d", "nested", "later"]

    def test_max_events_stops_mid_cycle(self):
        ev = EventQueue()
        log = []

        def first():
            log.append(0)
            ev.schedule(0, log.append, "nested")

        ev.schedule(3, first)
        for tag in range(1, 5):
            ev.schedule(3, log.append, tag)
        assert ev.run(max_events=2) == 2
        assert log == [0, 1]
        assert ev.pending == 4
        assert ev.now == 3
        assert ev.step() is True
        assert log == [0, 1, 2]
        assert ev.run() == 3
        assert log == [0, 1, 2, 3, 4, "nested"]
        assert ev.processed == 6

    def test_event_exactly_at_max_cycles_fires(self):
        ev = EventQueue()
        log = []
        ev.schedule(10, log.append, "at_cap")
        ev.schedule(10, log.append, "also_at_cap")
        ev.schedule(11, log.append, "past_cap")
        assert ev.run(max_cycles=10) == 2
        assert log == ["at_cap", "also_at_cap"]
        assert ev.now == 10
        assert ev.pending == 1


class ReferenceQueue:
    """The ``(time, seq)`` heap the bucketed queue must match event for event."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.now = 0
        self.processed = 0

    @property
    def pending(self):
        return len(self.heap)

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(delay)
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise ValueError(time)
        heapq.heappush(self.heap, (time, self.seq, callback, args))
        self.seq += 1

    def step(self):
        return self.run(max_events=1) == 1

    def run(self, max_events=None, max_cycles=None):
        fired = 0
        try:
            while self.heap:
                if max_events is not None and fired >= max_events:
                    break
                if max_cycles is not None and self.heap[0][0] > max_cycles:
                    self.now = max(self.now, max_cycles)
                    break
                time, _seq, callback, args = heapq.heappop(self.heap)
                self.now = time
                fired += 1
                callback(*args)
        finally:
            self.processed += fired
        return fired


class Boom(Exception):
    pass


#: One scheduling action: (use schedule_at?, delay from now).  Small delays
#: put many events on each cycle, and zero delays schedule into the cycle
#: being fired.
_actions = st.lists(st.tuples(st.booleans(), st.integers(0, 4)), max_size=4)
_drives = st.lists(
    st.one_of(
        st.just(("step",)),
        st.tuples(st.just("run"), st.none() | st.integers(0, 12),
                  st.none() | st.integers(0, 40))),
    min_size=1, max_size=8)


def _drive(queue, initial, plans, raise_tag, drives):
    """Run ``drives`` on ``queue``; yield its observable state after each."""
    log = []
    tags = itertools.count()

    def add(at, delay):
        tag = next(tags)
        if at:
            queue.schedule_at(queue.now + delay, fire, tag)
        else:
            queue.schedule(delay, fire, tag)

    def fire(tag):
        log.append((tag, queue.now, queue.pending))
        if tag < 60:  # bound the cascade
            for at, delay in plans[tag % len(plans)]:
                add(at, delay)
        if tag == raise_tag:
            raise Boom(tag)

    for at, delay in initial:
        add(at, delay)
    for drive in drives + [("run", None, None)] * 2:
        try:
            result = queue.step() if drive[0] == "step" else queue.run(*drive[1:])
        except Boom:
            result = "raised"
        yield result, list(log), queue.now, queue.pending, queue.processed


class TestDifferentialAgainstHeap:
    @settings(max_examples=300, deadline=None)
    @given(initial=st.lists(st.tuples(st.booleans(), st.integers(0, 6)),
                            min_size=1, max_size=12),
           plans=st.lists(_actions, min_size=1, max_size=6),
           raise_tag=st.integers(0, 40),
           drives=_drives)
    def test_same_firing_order_and_counters(self, initial, plans, raise_tag,
                                            drives):
        bucketed = _drive(EventQueue(), initial, plans, raise_tag, drives)
        reference = _drive(ReferenceQueue(), initial, plans, raise_tag, drives)
        assert list(bucketed) == list(reference)
