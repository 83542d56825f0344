"""Statistics collection for simulation runs.

A :class:`Stats` object is a flat bag of named integer counters with a few
structured conveniences (per-message-type counts, miss classification).
Hubs and processors increment counters as they go; at the end of a run the
harness snapshots everything into a plain dict for analysis.

Counter naming convention: ``<area>.<event>`` — e.g. ``msg.sent.GETS``,
``miss.remote_3hop``, ``dele.undelegate.capacity``.
"""

import math
from collections import defaultdict


class Stats:
    """A bag of named counters, mergeable across nodes."""

    def __init__(self):
        self._counters = defaultdict(int)

    def inc(self, name, amount=1):
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counters[name] += amount

    def get(self, name):
        """Current value of ``name`` (zero if never incremented)."""
        return self._counters[name]

    def prefixed(self, prefix):
        """All counters whose names start with ``prefix``, as a dict."""
        return {k: v for k, v in self._counters.items() if k.startswith(prefix)}

    def total(self, prefix):
        """Sum of all counters whose names start with ``prefix``."""
        return sum(v for k, v in self._counters.items() if k.startswith(prefix))

    def merge(self, other):
        """Accumulate another Stats object into this one."""
        for name, value in other._counters.items():
            self._counters[name] += value
        return self

    def as_dict(self):
        """Snapshot all counters as a plain, sorted dict."""
        return dict(sorted(self._counters.items()))

    def __repr__(self):
        return "Stats(%d counters)" % len(self._counters)


def quantile(counts, q):
    """Nearest-rank ``q``-quantile of integer ``(value, count)`` pairs.

    The answer is the smallest value whose cumulative count reaches
    ``ceil(q * total)`` (at least rank 1), so it is always a value that
    was actually observed.  Pairs may repeat a value (merging per-class
    counts is concatenation) and need not be sorted; returns None when
    the total count is zero.
    """
    if not 0 <= q <= 1:
        raise ValueError("quantile q must be in [0, 1], got %r" % (q,))
    pairs = sorted(counts)
    total = sum(count for _value, count in pairs)
    if not total:
        return None
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value, count in pairs:
        seen += count
        if seen >= rank:
            return value


# Canonical counter names used across the simulator.  Kept in one place so
# tests and analysis reference them symbolically instead of via string typos.

MISS_LOCAL = "miss.local"            # satisfied on-node (local memory or RAC)
MISS_2HOP = "miss.remote_2hop"       # request + reply, no third party
MISS_3HOP = "miss.remote_3hop"       # home had to involve a remote owner
MSG_SENT = "msg.sent."               # + message type name
MSG_BYTES = "msg.bytes"              # total bytes put on the network
HIT_L1 = "hit.l1"
HIT_L2 = "hit.l2"
HIT_RAC = "hit.rac"                  # RAC hits that satisfied a processor miss
HIT_RAC_UPDATE = "hit.rac_update"    # RAC hits on speculatively pushed data
NACKS = "protocol.nack"
RETRIES = "protocol.retry"
DELEGATIONS = "dele.delegate"
UNDELEGATIONS = "dele.undelegate."   # + reason
UPDATES_SENT = "update.sent"
UPDATES_CONSUMED = "update.consumed"
UPDATES_WASTED = "update.wasted"     # invalidated before ever being read
INTERVENTIONS = "update.intervention"
PC_DETECTED = "detector.marked"


def remote_misses(stats):
    """Total remote (2-hop + 3-hop) misses in a Stats object."""
    return stats.get(MISS_2HOP) + stats.get(MISS_3HOP)


def total_messages(stats):
    """Total network messages of all types."""
    return stats.total(MSG_SENT)
