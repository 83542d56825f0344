"""The whole simulated machine and the run loop.

``System`` wires together the event queue, fabric, per-node hubs and
processors, the barrier manager, the address map and the online coherence
checker, then drains the event queue until every CPU retires its trace.

Typical use::

    from repro.common import small
    from repro.sim import System

    system = System(small())
    result = system.run(per_cpu_ops, placements={region_start: home_node})
    print(result.cycles, result.stats["miss.remote_3hop"])
"""

from dataclasses import dataclass, field
from typing import Dict, List

from ..common.errors import SimulationError
from ..common.events import EventQueue
from ..common.stats import Stats
from ..directory.placement import AddressMap
from ..network.chaos import ChaosPolicy
from ..network.fabric import Fabric
from ..network.message import reset_msg_ids
from ..protocol.arena import resolve_protocol
from ..protocol.transactions import PathClass
from .barrier import BarrierManager
from .coherence_check import CoherenceChecker
from .processor import Processor


@dataclass
class RunResult:
    """Everything a finished simulation reports."""

    cycles: int
    stats: Dict[str, int]
    cpu_finish_times: List[int]
    ops_executed: int
    events_processed: int
    extras: dict = field(default_factory=dict)

    def stat(self, name, default=0):
        return self.stats.get(name, default)


class System:
    """A ``num_nodes``-node cc-NUMA machine ready to execute one workload."""

    def __init__(self, config, check_coherence=True, tracer=None, chaos=None):
        reset_msg_ids()
        # The protocol registry maps config.protocol_name to a hub class
        # and may normalise the config onto the protocol's feature set
        # (identity for the default "adaptive", so existing configs are
        # untouched byte-for-byte).
        self.protocol = resolve_protocol(config.protocol_name)
        config = self.protocol.normalize_config(config)
        self.config = config
        self.events = EventQueue()
        self.stats = Stats()
        # Exact miss latencies, always on: path class -> {cycles: count}.
        # Kept out of ``stats`` so run digests and goldens never see it.
        self.miss_latency = {path: {} for path in PathClass}
        self.tracer = tracer  # None = tracing disabled (the no-op fast path)
        # ``chaos`` may be a ChaosConfig or an already-built ChaosPolicy;
        # None (or an all-zero config) keeps the unperturbed fast path.
        self.chaos = ChaosPolicy.resolve(chaos, stats=self.stats)
        self.address_map = AddressMap(config.num_nodes)
        self.fabric = Fabric(config, self.events, self.stats, tracer=tracer,
                             chaos=self.chaos)
        self.checker = CoherenceChecker(self) if check_coherence else None
        self.hubs = [self.protocol.make_hub(node, self)
                     for node in range(config.num_nodes)]
        self.processors = []
        self.barrier = None
        self._unfinished = 0

    def on_cpu_finished(self, node):
        self._unfinished -= 1

    def run(self, per_cpu_ops, placements=None, max_cycles=None,
            max_events=None):
        """Execute one op stream per CPU and return a :class:`RunResult`.

        ``per_cpu_ops`` is an iterable of at most ``num_nodes`` iterables of
        trace ops; CPU *i* runs stream *i*.  Streams are materialised once
        up front, so one-shot iterables (generators) are fine.
        ``placements`` is an iterable of ``(start, length, home)`` triples
        modelling the paper's first-touch placement; pass the triples
        produced by the workload's :meth:`placements` method.
        """
        if self.processors:
            raise SimulationError("a System instance runs exactly one workload")
        streams = [list(ops) for ops in per_cpu_ops]
        if not streams:
            raise SimulationError(
                "per_cpu_ops is empty: need at least one op stream")
        if len(streams) > self.config.num_nodes:
            raise SimulationError(
                "%d op streams for %d nodes"
                % (len(streams), self.config.num_nodes))
        # An empty placements list deliberately means the same as None
        # ("no explicit placement"): the falsy check covers both.
        if placements:
            for start, length, home in placements:
                self.address_map.place_range(start, length, home)
        self.barrier = BarrierManager(self.events, len(streams),
                                      stats=self.stats)
        self.processors = [
            Processor(node, self, self.hubs[node], ops)
            for node, ops in enumerate(streams)
        ]
        self._unfinished = len(self.processors)
        for processor in self.processors:
            processor.start()
        self.events.run(max_events=max_events, max_cycles=max_cycles)
        if self._unfinished:
            raise SimulationError(
                "simulation stalled at cycle %d with %d unfinished CPUs: %s"
                % (self.events.now, self._unfinished,
                   {p.node: p.describe() for p in self.processors
                    if not p.finished}))
        result = RunResult(
            cycles=max(p.finish_time for p in self.processors),
            stats=self.stats.as_dict(),
            cpu_finish_times=[p.finish_time for p in self.processors],
            ops_executed=sum(p.ops_executed for p in self.processors),
            events_processed=self.events.processed,
        )
        result.extras["miss_latency"] = {
            path.value: [[latency, count]
                         for latency, count in sorted(counts.items())]
            for path, counts in self.miss_latency.items()}
        if self.tracer is not None:
            self.tracer.finalize(self.events.now)
            result.extras["obs"] = self.tracer.metrics.summary()
        return result
