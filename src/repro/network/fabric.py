"""Message delivery engine.

The fabric owns traffic accounting (message and byte counters — the
evaluation's "network messages" metric) and delivery timing: topology
latency plus hub port contention at the receiver.  Each hub drains its
ingress port serially, one message per ``hub_occupancy`` cycles, matching
the paper's "we do not model contention within the routers, but do model
hub port contention".

This is the hottest module in the simulator (every message crosses
:meth:`Fabric.send` and :meth:`Fabric._deliver`), so per-send work is
precomputed at construction: wire sizes and stats-counter keys per message
type, lazily materialised per-source latency rows, and a flat
``busy_until`` list instead of port objects.  Delivery doubles as the
message pool's quiescence point: after a handler returns, a message whose
refcount proves no one retained it goes back to the free list.
"""

from sys import getrefcount

from ..common.stats import MSG_BYTES
from .message import EMPTY_PAYLOAD, Message, MsgType
from .topology import FatTree


class Fabric:
    """Connects hubs; delivers messages with latency + port contention."""

    def __init__(self, config, events, stats, tracer=None, chaos=None):
        self.config = config
        self.events = events
        self.stats = stats
        self._tracer = tracer
        self._chaos = chaos  # None = no fault injection (the fast path)
        self.topology = FatTree(config.num_nodes, config.network)
        num_nodes = config.num_nodes
        self._occupancy = config.network.hub_occupancy
        self._busy_until = [0] * num_nodes
        self._handlers = [None] * num_nodes
        # Optional per-node pre-bound handler tables indexed by
        # MsgType.index (see Hub._handler_array): lets delivery skip the
        # hub.dispatch frame entirely.  Nodes attached with a bare
        # callable (tests use spies) take the generic path.
        self._tables = [None] * num_nodes
        self.delivered = 0
        # Per-type precomputation, indexed by the dense MsgType.index.
        header = config.network.header_bytes
        line = config.line_size
        self._size_by_type = [
            header + (line if mtype.data_bearing else 0) for mtype in MsgType
        ]
        self._sent_key_by_type = [mtype.sent_counter for mtype in MsgType]
        # Latency rows are filled on first use per source node: an
        # all-pairs matrix would be O(nodes^2) up-front for the 1024-node
        # goal, but each run only exercises the rows of active nodes.
        self._latency_rows = [None] * num_nodes
        self._counters = stats._counters
        # Tracer and chaos policy are fixed for the fabric's lifetime, so
        # the common bench/eval configuration (neither present) can skip
        # their per-send checks entirely via a specialised bound method.
        if tracer is None and chaos is None:
            self.send = self._send_fast
        if chaos is None:
            self._deliver = self._deliver_fast

    # ``tracer`` and ``chaos`` are read-only after construction because the
    # fast-path methods above are *chosen* from their construction-time
    # values.  A late ``fabric.tracer = Tracer()`` used to be silently
    # ignored on the fast path (the bug this guards against); now it
    # raises so the caller learns to pass the hook to System/Fabric up
    # front.  Re-assigning the identical object stays legal — idempotent
    # wiring code does that.

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value):
        if value is not self._tracer:
            raise RuntimeError(
                "fabric.tracer cannot change after construction: the "
                "traced/untraced send path is bound at __init__; pass "
                "tracer= to System() or Fabric() instead")
        self._tracer = value

    @property
    def chaos(self):
        return self._chaos

    @chaos.setter
    def chaos(self, value):
        if value is not self._chaos:
            raise RuntimeError(
                "fabric.chaos cannot change after construction: the "
                "chaos-free delivery path is bound at __init__; pass "
                "chaos= to System() or Fabric() instead")
        self._chaos = value

    def attach(self, node, handler, table=None):
        """Register the message handler (hub) for ``node``.

        ``table``, when given, is a pre-bound per-MsgType handler list
        (indexed by ``MsgType.index``) delivery may use directly instead
        of calling ``handler``; ``handler`` remains the fallback for
        anything that is not a plain in-vocabulary message.
        """
        self._handlers[node] = handler
        self._tables[node] = table

    def _latency_row(self, src):
        latency = self.topology.latency
        row = [latency(src, dst) for dst in range(self.config.num_nodes)]
        self._latency_rows[src] = row
        return row

    def send(self, msg):
        """Put ``msg`` on the wire; it will be handled at the destination
        after topology latency and port serialisation.

        Node-local sends (src == dst) are legal — e.g. a node whose home is
        itself — and are delivered after port occupancy only, without
        counting as network traffic.
        """
        src = msg.src
        dst = msg.dst
        remote = src != dst
        events = self.events
        now = events.now
        if self._tracer is not None:
            self._tracer.msg_send(msg, now, remote)
        if remote:
            index = msg.mtype.index
            counters = self._counters
            counters[self._sent_key_by_type[index]] += 1
            counters[MSG_BYTES] += self._size_by_type[index]
        row = self._latency_rows[src]
        if row is None:
            row = self._latency_row(src)
        arrival = now + row[dst]
        chaos = self._chaos if remote else None
        if chaos is not None:
            arrival = chaos.arrival(msg, arrival)
        busy = self._busy_until
        start = busy[dst]
        if arrival > start:
            start = arrival
        deliver_at = start + self._occupancy
        busy[dst] = deliver_at
        events.schedule_at(deliver_at, self._deliver, msg)
        if chaos is not None:
            dup_arrival = chaos.duplicate_arrival(msg, arrival)
            if dup_arrival is not None:
                # The duplicate is its own packet with its own payload
                # copy.  No handler writes into a payload (broadcast
                # payloads are read-only proxies shared across the push),
                # so the copy is not what keeps the two deliveries apart.
                dup = Message(msg.mtype, src=src, dst=dst,
                              addr=msg.addr, value=msg.value,
                              payload=dict(msg.payload))
                start = busy[dst]
                if dup_arrival > start:
                    start = dup_arrival
                dup_at = start + self._occupancy
                busy[dst] = dup_at
                events.schedule_at(dup_at, self._deliver, dup)

    def _send_fast(self, msg):
        """:meth:`send` specialised for tracer is None and chaos is None
        (bound over ``self.send`` at construction).  Must stay behaviour-
        identical to the general path under those conditions."""
        src = msg.src
        dst = msg.dst
        events = self.events
        if src != dst:
            index = msg.mtype.index
            counters = self._counters
            counters[self._sent_key_by_type[index]] += 1
            counters[MSG_BYTES] += self._size_by_type[index]
        row = self._latency_rows[src]
        if row is None:
            row = self._latency_row(src)
        arrival = events.now + row[dst]
        busy = self._busy_until
        start = busy[dst]
        if arrival > start:
            start = arrival
        deliver_at = start + self._occupancy
        busy[dst] = deliver_at
        events.schedule_at(deliver_at, self._deliver, msg)

    def _deliver(self, msg):
        dst = msg.dst
        handler = None
        table = self._tables[dst]
        if table is not None:
            try:
                handler = table[msg.mtype.index]
            except (AttributeError, TypeError, IndexError):
                handler = None  # not a real MsgType; use the generic path
        if handler is None:
            handler = self._handlers[dst]
            if handler is None:
                raise RuntimeError("no handler attached for node %d" % dst)
        self.delivered += 1
        if self._chaos is not None and msg.src != dst:
            nack = self._chaos.forced_nack(msg)
            if nack is not None:
                self.send(nack)
                return
        # Refcount-gated pool recycling: if the handler retained the
        # message anywhere (BusyRecord.req_msg, a delayed re-send on the
        # event queue, a trace buffer), its refcount rises and we leave it
        # alone; unchanged means this frame holds the last references and
        # the message is quiescent.  An exception skips release entirely.
        before = getrefcount(msg)
        handler(msg)
        if getrefcount(msg) == before and not msg._pooled:
            # Inlined Message.release() — one frame per delivered message.
            msg.payload = EMPTY_PAYLOAD
            pool = Message._pool
            if len(pool) < Message._pool_limit:
                msg._pooled = True
                pool.append(msg)

    def _deliver_fast(self, msg):
        """:meth:`_deliver` minus the chaos hook (bound over ``_deliver``
        at construction when no chaos policy is installed)."""
        dst = msg.dst
        handler = None
        table = self._tables[dst]
        if table is not None:
            try:
                handler = table[msg.mtype.index]
            except (AttributeError, TypeError, IndexError):
                handler = None  # not a real MsgType; use the generic path
        if handler is None:
            handler = self._handlers[dst]
            if handler is None:
                raise RuntimeError("no handler attached for node %d" % dst)
        self.delivered += 1
        before = getrefcount(msg)
        handler(msg)
        if getrefcount(msg) == before and not msg._pooled:
            msg.payload = EMPTY_PAYLOAD
            pool = Message._pool
            if len(pool) < Message._pool_limit:
                msg._pooled = True
                pool.append(msg)
