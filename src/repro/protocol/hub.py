"""The per-node hub controller.

The hub is the node's external directory controller (Figure 2): it owns the
RAC, the directory (home memory + directory cache with detector bits), the
delegate cache, and the network interface.  All of the paper's mechanisms
live here — nothing requires processor changes, exactly as the paper
stipulates.

The class is assembled from three mixins that mirror the protocol roles:

* :class:`~repro.protocol.requester.RequesterMixin` — cache-side logic
  (processor misses, replies, NACK/retry, inbound INV/INTERVENTION).
* :class:`~repro.protocol.home.HomeMixin` — home-directory logic (base
  write-invalidate protocol, delegation initiation, DELE forwarding).
* :class:`~repro.protocol.producer.ProducerMixin` — delegated-home logic
  (acting-home service, undelegation, delayed intervention, updates).
"""

from sys import getrefcount

from ..cache.hierarchy import PrivateCacheHierarchy
from ..cache.rac import RemoteAccessCache
from ..common.errors import ProtocolError, UnhandledMessageError
from ..common.rng import stream
from ..directory.dircache import DirectoryCache
from ..directory.formats import DirectoryFormat
from ..directory.state import HomeMemory
from ..network.message import Message, MsgType
from .delegate_cache import ConsumerTable, ProducerTable
from .home import HomeMixin
from .predictors import make_detector
from .producer import ProducerMixin
from .requester import RequesterMixin


class Hub(RequesterMixin, HomeMixin, ProducerMixin):
    """One node's directory/coherence controller."""

    def __init__(self, node, system):
        self.node = node
        self.system = system
        self.config = system.config
        self.events = system.events
        self.fabric = system.fabric
        self.stats = system.stats
        self.miss_latency = system.miss_latency
        self.address_map = system.address_map
        self.checker = getattr(system, "checker", None)
        self.tracer = getattr(system, "tracer", None)

        protocol = self.config.protocol
        self.hierarchy = PrivateCacheHierarchy(self.config)
        self.rac = None
        if protocol.enable_rac:
            self.rac = RemoteAccessCache(
                self.config.rac,
                rng=stream(self.config.seed, "rac-%d" % node),
                stats=self.stats)
        self.home_memory = HomeMemory(node)
        self.dir_format = DirectoryFormat.parse(self.config.directory_format)
        self.detector = make_detector(protocol, self.stats)
        self.dircache = DirectoryCache(self.config.directory_cache_entries,
                                       self.detector.new_entry)
        self.producer_table = None
        self.consumer_table = None
        if protocol.enable_delegation:
            self.producer_table = ProducerTable(self.config.delegate.entries)
            self.consumer_table = ConsumerTable(
                self.config.delegate,
                rng=stream(self.config.seed, "ct-%d" % node),
                line_size=self.config.line_size)

        self.miss = None
        self._retry_rng = stream(self.config.seed, "retry-%d" % node)
        self._intervention_epoch = {}
        self._enable_updates = protocol.enable_updates

        self._handlers = {
            MsgType.GETS: self._route_request,
            MsgType.GETX: self._route_request,
            MsgType.DATA_SHARED: self._on_data_shared,
            MsgType.DATA_EXCL: self._on_data_excl,
            MsgType.ACK_X: self._on_ack_x,
            MsgType.INV: self._on_inv,
            MsgType.INV_ACK: self._on_inv_ack,
            MsgType.INTERVENTION: self._on_intervention,
            MsgType.SHARED_WB: self._on_shared_wb,
            MsgType.SHARED_RESP: self._on_shared_resp,
            MsgType.EXCL_RESP: self._on_excl_resp,
            MsgType.XFER_OWNER: self._on_xfer_owner,
            MsgType.WRITEBACK: self._home_writeback,
            MsgType.EVICT_CLEAN: self._home_writeback,
            MsgType.WB_ACK: self._on_wb_ack,
            MsgType.NACK: self._on_nack,
            MsgType.NACK_NOT_HOME: self._on_nack_not_home,
            MsgType.DELEGATE: self._on_delegate,
            MsgType.UNDELE: self._on_undele,
            MsgType.UNDELE_REQ: self._on_undele_req,
            MsgType.HOME_CHANGED: self._on_home_changed,
            MsgType.UPDATE: self._on_update,
            MsgType.UPDATE_ACK: self._on_update_ack,
        }
        # Pre-bound dispatch array indexed by the dense MsgType.index; the
        # dict above stays the single source of truth (repro.lint's
        # protocol-graph extractor parses it) and this is its compiled
        # form.  All 23 types are handled today, but the array is built
        # defensively so a future unhandled type still raises the
        # structured error via _unhandled.
        self._handler_array = [
            self._handlers.get(mtype, self._unhandled) for mtype in MsgType
        ]
        self.send = self.fabric.send
        self.fabric.attach(node, self.dispatch, table=self._handler_array)

    # -- plumbing -----------------------------------------------------------

    # Bound through to the fabric in __init__ (one frame per message saved
    # on the hottest call in the simulator); the def remains as the
    # class-level fallback and documentation of the interface.
    def send(self, msg):
        self.fabric.send(msg)

    def dispatch(self, msg):
        """Entry point for every message delivered to this node."""
        try:
            handler = self._handler_array[msg.mtype.index]
        except (AttributeError, TypeError, IndexError):
            # Anything that is not a real MsgType lands here (note that a
            # str mtype resolves .index to the str method -> TypeError).
            self._unhandled(msg)
            return
        handler(msg)

    def _redispatch(self, msg):
        """Re-run dispatch for a message retained past its delivery frame.

        Messages parked in a BusyRecord (WB races, undelegation) were
        retained when first delivered, so the fabric's refcount gate left
        them out of the pool.  When the busy resolves and the pending
        request finally runs to completion, this frame is the new
        quiescence point: if the handler did not retain the message again,
        recycle it here — otherwise such messages leak from the pool for
        the rest of the run.  ``_pooled`` guards the fuzz-replay /
        repeated-redispatch paths against a double release.
        """
        before = getrefcount(msg)
        self.dispatch(msg)
        if getrefcount(msg) == before and not msg._pooled:
            msg.release()

    def _unhandled(self, msg):
        dir_state = None
        if self.address_map.home_of(msg.addr) == self.node:
            dir_state = self.home_memory.entry(msg.addr).state.value
        raise UnhandledMessageError(self.node, msg.mtype, dir_state,
                                    msg, cycle=self.events.now)

    def _route_request(self, msg):
        """GETS/GETX routing: acting home, real home, or stale-hint bounce."""
        addr = msg.addr
        if self.producer_table is not None and addr in self.producer_table:
            if msg.mtype is MsgType.GETS:
                self._acting_home_gets(msg)
            else:
                self._acting_home_getx(msg)
        elif self.address_map.home_of(addr) == self.node:
            if msg.mtype is MsgType.GETS:
                self._home_gets(msg)
            else:
                self._home_getx(msg)
        else:
            # A stale consumer-table hint pointed here; the requester drops
            # its hint and retries at the real home.
            self.send(Message(MsgType.NACK_NOT_HOME, src=self.node,
                              dst=msg.payload["requester"], addr=addr))

    def _on_home_changed(self, msg):
        if self.consumer_table is not None:
            self.consumer_table.insert(msg.addr, msg.payload["delegate"])

    def _protocol_error(self, text):
        return ProtocolError("[node %d @ cycle %d] %s"
                             % (self.node, self.events.now, text))

    # -- introspection (used by tests and invariant checks) --------------------

    def snapshot_line(self, addr):
        """A debugging/verification view of this node's state for ``addr``."""
        view = {
            "l2": self.hierarchy.state_of(addr).value,
            "dir": None,
            "delegated_here": False,
            "rac": None,
        }
        if self.address_map.home_of(addr) == self.node:
            entry = self.home_memory.entry(addr)
            view["dir"] = entry.state.value
        if self.producer_table is not None and addr in self.producer_table:
            view["delegated_here"] = True
        if self.rac is not None:
            line = self.rac.probe(addr)
            if line is not None:
                view["rac"] = line.kind.value
        return view
