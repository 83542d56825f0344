"""Discrete-event scheduling core.

The whole simulator runs off one :class:`EventQueue`: hubs, processors, the
network fabric and the barrier manager all schedule plain callbacks at
absolute times (in CPU cycles).  Events scheduled for the same cycle fire in
scheduling order, which keeps runs fully deterministic.

Pending events are bucketed by cycle: a dict maps each pending cycle to one
flat list that alternates ``callback, args``, and a heap holds the distinct
pending cycles.  At scale most events land on a cycle that already has
events pending (a directory broadcast puts hundreds of deliveries on a few
cycles), so scheduling is usually a dict hit plus two appends, and a pending
event costs two list slots plus its args tuple.  Appends arrive in
scheduling order, so no sequence number is needed to break ties.
"""

from heapq import heappop, heappush
from itertools import islice
from operator import length_hint
from sys import maxsize


class EventQueue:
    """A deterministic discrete-event queue keyed by absolute cycle time."""

    __slots__ = ("_buckets", "_cycles", "_firing", "now", "_processed")

    def __init__(self):
        self._buckets = {}       # cycle -> [callback, args, callback, args, ...]
        self._cycles = []        # heap of the keys of _buckets
        self._firing = iter(())  # the unfired rest of the cycle being run
        #: Current simulation time in CPU cycles.  Read it, never assign it:
        #: a plain attribute because the fabric and processors read it on
        #: every message and cache hit.
        self.now = 0
        self._processed = 0

    @property
    def pending(self):
        """Number of events waiting to fire."""
        slots = sum(map(len, self._buckets.values()))
        return (slots + length_hint(self._firing)) >> 1

    @property
    def processed(self):
        """Total number of events fired so far."""
        return self._processed

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to fire ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current cycle.
        """
        if delay < 0:
            raise ValueError("cannot schedule an event in the past (delay=%r)" % delay)
        # The body of schedule_at, inlined: processors schedule once per op.
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback, args]
            heappush(self._cycles, time)
        else:
            bucket.append(callback)
            bucket.append(args)

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute cycle ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule at %r, current time is %r" % (time, self.now)
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback, args]
            heappush(self._cycles, time)
        else:
            bucket.append(callback)
            bucket.append(args)

    def step(self):
        """Fire the single next event.  Returns False when the queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, max_events=None, max_cycles=None):
        """Drain the queue.

        Stops when the queue is empty, when ``max_events`` events have fired,
        or when simulation time would exceed ``max_cycles``.  On the
        ``max_cycles`` exit ``now`` advances to the cap itself (no event fires
        there), so callers comparing ``now`` against their cap see the true
        stall point rather than the last fired event.  Returns the number of
        events processed by this call.

        Each cycle's bucket is taken out of the queue before it fires, so an
        event scheduled for the current cycle lands in a fresh bucket that
        fires next.  If a callback raises or ``max_events`` stops the loop
        mid-cycle, the unfired rest of the cycle goes back in front of that
        fresh bucket.  Both caps are checked once per cycle; ``max_events``
        may also cut a cycle short.  An event's own firing is already
        counted in ``processed`` if its callback raises: fuzz repro digests
        embed that number.
        """
        buckets = self._buckets
        cycles = self._cycles
        event_cap = maxsize if max_events is None else max_events
        cycle_cap = maxsize if max_cycles is None else max_cycles
        fired = 0
        try:
            while cycles:
                if fired >= event_cap:
                    break
                time = cycles[0]
                if time > cycle_cap:
                    if cycle_cap > self.now:
                        self.now = cycle_cap
                    break
                heappop(cycles)
                bucket = buckets.pop(time)
                self.now = time
                if len(bucket) == 2:
                    # A lone event (40-60% of a 16-node run's cycles) skips
                    # the iterator set-up; nothing can be left unfired.
                    fired += 1
                    bucket[0](*bucket[1])
                    continue
                it = self._firing = iter(bucket)
                batch = zip(it, it)
                if len(bucket) >> 1 > event_cap - fired:
                    batch = islice(batch, event_cap - fired)
                for callback, args in batch:
                    fired += 1
                    callback(*args)
        finally:
            self._processed += fired
            rest = list(self._firing)
            if rest:
                # Only an early exit leaves a rest; ``now`` is still its cycle.
                newer = buckets.get(self.now)
                if newer is None:
                    heappush(cycles, self.now)
                else:
                    rest += newer
                buckets[self.now] = rest
        return fired
