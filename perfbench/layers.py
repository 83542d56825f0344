"""Outside-in spans around each layer's public entry points.

The traced run wraps, from the benchmark's own files, the calls into each
layer of the program and charges host time to whichever layer is
innermost.  Nothing under ``src/`` changes: every wrapper is installed by
:class:`Patches` before the objects that cache bound methods are built,
and removed again after the traced rounds.

Three construction-time fast paths would silently bypass a plain
class-level wrapper, so they are wrapped where they are bound:

* ``Fabric.__init__`` binds ``_send_fast``/``_deliver_fast`` over
  ``send``/``_deliver``; the wrapped ``Fabric.__init__`` wraps whichever
  instance attribute it chose, before any hub caches ``fabric.send``.
* Hubs hand pre-bound handler arrays to ``Fabric.attach``; the wrapped
  ``attach`` wraps every entry of the array the fabric will index.
* ``Processor`` caches ``hierarchy.read``/``write`` and the checker's
  ``record_*`` at construction; those are wrapped on their classes before
  ``System.run`` builds the processors, so the cached bound methods are
  already the wrappers.

Spans are aggregated in memory (self time and call count per layer and
per entry point) rather than stored one by one: a storm round makes
millions of calls.
"""

import functools
import inspect
from time import perf_counter

#: Layer names, as reported.  Index 0 is the benchmark itself (time
#: outside every span).
LAYERS = (
    "bench",
    "harness.round",
    "harness.job",
    "workloads",
    "sim.construct",
    "sim.run",
    "network.send",
    "network.deliver",
    "protocol",
    "cache",
    "directory",
    "checker",
    "obs",
    "mc.construct",
    "mc.engine",
    "mc.rules",
    "mc.invariants",
    "mc.canonical",
)

_LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}


class LayerClock:
    """Charges elapsed host time to the innermost active layer.

    On entry to a span, the time since the last boundary is charged to
    the layer that was running; on exit, to the span's own layer.  So the
    self times of all layers add up to the traced wall time, and a
    layer's self time is its span durations minus its child spans.
    ``counts`` holds one call counter per entry point ("slot"), which the
    reconciliation compares with the program's own counters.
    """

    def __init__(self):
        self.self_s = [0.0] * len(LAYERS)
        self._slots = {}
        self._slot_layer = []
        self.counts = []
        self._state = [0, perf_counter()]  # [current layer, last boundary]

    def reset(self):
        """Zero every accumulator and restart the clock in layer ``bench``."""
        for index in range(len(self.self_s)):
            self.self_s[index] = 0.0
        for index in range(len(self.counts)):
            self.counts[index] = 0
        self._state[0] = 0
        self._state[1] = perf_counter()

    def settle(self):
        """Charge the time since the last boundary to the current layer."""
        now = perf_counter()
        self.self_s[self._state[0]] += now - self._state[1]
        self._state[1] = now

    def _slot(self, slot, layer):
        index = self._slots.get(slot)
        if index is None:
            index = self._slots[slot] = len(self.counts)
            self.counts.append(0)
            self._slot_layer.append(layer)
        elif self._slot_layer[index] != layer:
            raise ValueError("slot %r already belongs to layer %r"
                             % (slot, LAYERS[self._slot_layer[index]]))
        return index

    def count(self, slot):
        """Calls made through ``slot`` since the last reset (0 if unknown)."""
        index = self._slots.get(slot)
        return self.counts[index] if index is not None else 0

    def layer_calls(self, layer):
        """Calls made into every slot of ``layer`` since the last reset."""
        target = _LAYER_INDEX[layer]
        return sum(count for count, owner in zip(self.counts, self._slot_layer)
                   if owner == target)

    def layer_self(self, layer):
        return self.self_s[_LAYER_INDEX[layer]]

    def wrap(self, fn, layer, slot):
        """``fn`` as a span of ``layer`` counted under ``slot``."""
        li = _LAYER_INDEX[layer]
        si = self._slot(slot, li)
        self_s = self.self_s
        counts = self.counts
        state = self._state
        clock = perf_counter

        def span(*args, **kwargs):
            now = clock()
            prev = state[0]
            self_s[prev] += now - state[1]
            state[0] = li
            state[1] = now
            counts[si] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[li] += now - state[1]
                state[0] = prev
                state[1] = now

        return span

    def wrap_iter(self, fn, layer, slot):
        """Like :meth:`wrap` for a callable returning an iterator (the
        model checker's rules are generators): the call *and* every
        ``next`` on the result are charged to ``layer``."""
        li = _LAYER_INDEX[layer]
        si = self._slot(slot, li)
        self_s = self.self_s
        counts = self.counts
        state = self._state
        clock = perf_counter

        def timed(iterator):
            while True:
                now = clock()
                prev = state[0]
                self_s[prev] += now - state[1]
                state[0] = li
                state[1] = now
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    now = clock()
                    self_s[li] += now - state[1]
                    state[0] = prev
                    state[1] = now
                yield item

        def span(*args, **kwargs):
            now = clock()
            prev = state[0]
            self_s[prev] += now - state[1]
            state[0] = li
            state[1] = now
            counts[si] += 1
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                now = clock()
                self_s[li] += now - state[1]
                state[0] = prev
                state[1] = now
            return timed(iterator)

        return span


class Patches:
    """Reversible attribute replacement on classes and modules."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, name, value):
        """Set ``owner.name`` (which ``owner`` itself must define)."""
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, value)
        return original

    def wrap_method(self, cls, name, make):
        """Replace method ``name`` where ``cls``'s MRO defines it with
        ``make(original)``, keeping the original's name and docstring."""
        owners = [klass for klass in cls.__mro__ if name in klass.__dict__]
        if not owners:
            raise AttributeError("%s has no method %r" % (cls.__name__, name))
        owner = owners[0]
        original = owner.__dict__[name]
        wrapper = functools.update_wrapper(make(original), original)
        self.replace(owner, name, wrapper)

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def public_methods(cls):
    """Plain functions ``cls`` itself defines that callers outside the
    class use: public names plus the container dunders."""
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value)
            and (not name.startswith("_")
                 or name in ("__contains__", "__len__"))]


def _wrap_all(patches, clock, cls, layer, names=None):
    for name in names if names is not None else public_methods(cls):
        slot = "%s.%s" % (cls.__name__, name)
        patches.wrap_method(cls, name,
                            lambda fn: clock.wrap(fn, layer, slot))


#: Hub methods the protocol schedules on the event queue directly (timers
#: and delayed completions); they run outside any fabric delivery.
PROTOCOL_TIMERS = ("_complete_miss", "_late_invalidate", "_issue_miss",
                   "_retry_intervention", "_retry_recall",
                   "_fire_intervention")


def install_sim_layers(patches, clock):
    """Wrap the simulator's layers (everything below ``System``)."""
    from repro.cache.hierarchy import PrivateCacheHierarchy
    from repro.cache.rac import RemoteAccessCache
    from repro.directory.dircache import DirectoryCache
    from repro.directory.formats import DirectoryFormat
    from repro.directory.placement import AddressMap
    from repro.directory.state import DirectoryEntry, HomeMemory
    from repro.fuzz import runner as fuzz_runner
    from repro.harness import scale, sweep
    from repro.network.fabric import Fabric
    from repro.obs.metrics import ObsMetrics
    from repro.obs.tracer import Tracer
    from repro.protocol.detector import ProducerConsumerDetector
    from repro.protocol.hub import Hub
    from repro.protocol.predictors import MultiWriterDetector
    from repro.sim.coherence_check import CoherenceChecker
    from repro.sim.system import System
    from repro.workloads.base import IterativePCWorkload
    from repro.workloads.migratory import MigratoryWorkload

    patches.replace(sweep, "_execute_job", clock.wrap(
        sweep._execute_job, "harness.job", "job"))
    _wrap_all(patches, clock, System, "sim.construct", ["__init__"])
    _wrap_all(patches, clock, System, "sim.run", ["run"])

    for cls in (IterativePCWorkload, MigratoryWorkload):
        _wrap_all(patches, clock, cls, "workloads", ["build"])
    patches.replace(scale, "build_workload", clock.wrap(
        fuzz_runner.build_workload, "workloads", "build_workload"))

    def fabric_init(original):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self.send = clock.wrap(self.send, "network.send", "fabric.send")
            self._deliver = clock.wrap(self._deliver, "network.deliver",
                                       "fabric.deliver")
        return init

    def fabric_attach(original):
        def attach(self, node, handler, table=None):
            if table is not None:
                table = [clock.wrap(entry, "protocol", "handle.table")
                         for entry in table]
            original(self, node,
                     clock.wrap(handler, "protocol", "handle.dispatch"),
                     table)
        return attach

    patches.wrap_method(Fabric, "__init__", fabric_init)
    patches.wrap_method(Fabric, "attach", fabric_attach)

    _wrap_all(patches, clock, Hub, "protocol",
              ("request_read", "request_write") + PROTOCOL_TIMERS)
    _wrap_all(patches, clock, ProducerConsumerDetector, "protocol",
              ("observe_read", "observe_write"))
    _wrap_all(patches, clock, MultiWriterDetector, "protocol",
              ("observe_write",))

    for cls in (PrivateCacheHierarchy, RemoteAccessCache):
        _wrap_all(patches, clock, cls, "cache")
    for cls in (DirectoryCache, HomeMemory, DirectoryEntry, DirectoryFormat,
                AddressMap):
        _wrap_all(patches, clock, cls, "directory")
    _wrap_all(patches, clock, CoherenceChecker, "checker")
    for cls in (Tracer, ObsMetrics):
        _wrap_all(patches, clock, cls, "obs")


def install_mc_layers(patches, clock):
    """Wrap the model checker: model construction, the engine, and the
    rules, invariants and canonicaliser handed to ``ModelChecker``."""
    from repro.mc.engine import ModelChecker
    from repro.mc.model import ProtocolModel
    from repro.spec.mcgen import SpecModel

    for cls in (ProtocolModel, SpecModel):
        _wrap_all(patches, clock, cls, "mc.construct", ["__init__"])

    def checker_init(original):
        signature = inspect.signature(original)

        def init(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            arguments = bound.arguments
            arguments["rules"] = [
                clock.wrap_iter(rule, "mc.rules", "rule")
                for rule in arguments["rules"]]
            arguments["invariants"] = [
                functools.update_wrapper(
                    clock.wrap(inv, "mc.invariants", "invariant"), inv)
                for inv in arguments["invariants"]]
            if arguments.get("canonicalize") is not None:
                arguments["canonicalize"] = clock.wrap(
                    arguments["canonicalize"], "mc.canonical", "canonical")
            return original(*bound.args, **bound.kwargs)

        return clock.wrap(init, "mc.construct", "ModelChecker.__init__")

    patches.wrap_method(ModelChecker, "__init__", checker_init)
    _wrap_all(patches, clock, ModelChecker, "mc.engine", ["run"])
