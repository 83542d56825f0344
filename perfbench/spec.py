"""What the benchmark measures, and why: the single source of its metric
and workload definitions.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds below in its own fixed layout;
``perfbench/selftest.py`` fails if the two disagree.

Every metric carries a label: ``host`` metrics are the simulator's own
cost (what a user waits for), ``sim`` metrics describe the modelled
machine (what the paper reports).  The simulated figures are exact and
deterministic for a given seed, so instead of a noise bound they are
pinned by the output digests in ``perfbench/expected.json``: any change
to them fails the run until the digests are re-recorded on purpose.

Every run is a closed loop: one client runs one job at a time, serially
in one process (``SweepEngine(jobs=1, cache=False)``), so no worker
process and no result-cache hit reaches the numbers.  The modelled
machine's caches start cold in every job (every job builds a fresh
``System``), and the message free list is emptied before every round, so
every exact counter repeats from round to round and from run to run.
"""

#: Workloads: why each exists, which layers it stresses and which it
#: bypasses.  For every optimisation one workload exercises the mechanism
#: and another bypasses it (where the prediction is "no change").
WORKLOADS = {
    "headline16": {
        "why": ("the paper's headline sweep (7 apps x base/small/large on 16 "
                "nodes, checker on): the reproduction path users run most"),
        "stresses": ("detector, delegation, speculative updates, RAC, "
                     "private caches, coherence checker, workload build "
                     "(21 builds per round)"),
        "bypasses": "obs tracer, compressed directory formats, model checker",
    },
    "storm256": {
        "why": ("the 256-node limited:2 storm through the same SweepEngine + "
                "scale_runner path as `repro scale`, tracer attached"),
        "stresses": ("fabric send/deliver (about 563k events and 523k "
                     "deliveries), broadcast invalidation fan-out, NACK/retry "
                     "pressure, lazy latency rows, the obs tracer on the "
                     "metric path, 256-hub construction"),
        "bypasses": "model checker; workload build is one small storm trace",
    },
    "verify": {
        "why": ("exhaustive `repro verify` model checks with exact state, "
                "transition and depth counts"),
        "stresses": ("repro.mc engine, the hand adaptive model and the "
                     "spec-generated MESI twin (spec.mcgen)"),
        "bypasses": "the whole simulator",
    },
}

#: End-to-end metrics.  ``bound`` is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
#: Every one of them applies to every workload and is never zero.
END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24,
     "label": "host",
     "what": "host wall time of one round of the workload (median over "
             "the run's rounds, taken job by job)"},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.24,
     "label": "host",
     "what": "host process CPU time of one round (median over rounds, "
             "taken job by job)"},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.24,
     "label": "host",
     "what": "simulated events (headline16, storm256) or model-checker "
             "states (verify) of one round per cpu_s"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "label": "host",
     "what": "host time before the first event or state fires, summed over "
             "a round's jobs: trace build + System(...) construction, or "
             "model + ModelChecker construction (median of several "
             "set-ups)"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05,
     "label": "host",
     "what": "peak resident set size of the benchmark process"},
)

#: Per-layer metrics of the traced run, as
#: (name, unit, better, label, which end-to-end metric it moves and where).
#: Times are layer self times in one traced round (median over the
#: traced rounds); counts are exact and identical on every round.  A
#: metric of a layer a workload bypasses reads 0 on that workload.
PER_LAYER = (
    ("workloads.build_s", "s", "lower", "host",
     "setup_s on headline16 (21 builds); negligible on storm256"),
    ("workloads.ops", "count", "lower", "sim",
     "setup_s on headline16; trace ops built, equals sim.ops_retired"),
    ("sim.construct_s", "s", "lower", "host",
     "setup_s; larger on storm256 (256 hubs) than on headline16"),
    ("sim.loop_self_s", "s", "lower", "host",
     "wall_s and work_per_s on both sim workloads (event loop, processor "
     "steps, barriers)"),
    ("sim.ops_retired", "count", "lower", "sim",
     "wall_s and work_per_s on both sim workloads"),
    ("events.fired", "count", "lower", "sim",
     "wall_s and work_per_s on both sim workloads (exact events_processed)"),
    ("sim.cycles", "cycles", "lower", "sim",
     "the modelled run time summed over jobs; speedups on headline16"),
    ("network.send_s", "s", "lower", "host",
     "wall_s, work_per_s and peak_rss_mb, mostly on storm256"),
    ("network.deliver_s", "s", "lower", "host",
     "wall_s, work_per_s and peak_rss_mb, mostly on storm256"),
    ("network.sends", "count", "lower", "sim",
     "wall_s on both sim workloads; equals fabric.delivered"),
    ("network.pool_allocs", "count", "lower", "host",
     "wall_s and peak_rss_mb on storm256 (Message.pool_stats allocations)"),
    ("network.pool_reuse", "ratio", "higher", "host",
     "wall_s on storm256: 1 - allocations / messages"),
    ("network.bytes", "bytes", "lower", "sim",
     "modelled traffic (msg.bytes) on both sim workloads"),
) + tuple(
    ("network.sent." + _mtype, "count", "lower", "sim",
     "modelled traffic (msg.sent.%s) on both sim workloads" % _mtype)
    for _mtype in (
        "GETS", "GETX", "DATA_SHARED", "DATA_EXCL", "ACK_X", "INV", "INV_ACK",
        "INTERVENTION", "SHARED_WB", "SHARED_RESP", "EXCL_RESP", "XFER_OWNER",
        "WRITEBACK", "EVICT_CLEAN", "WB_ACK", "NACK", "NACK_NOT_HOME",
        "DELEGATE", "UNDELE", "UNDELE_REQ", "HOME_CHANGED", "UPDATE",
        "UPDATE_ACK")
) + (
    ("protocol.handle_s", "s", "lower", "host",
     "wall_s on both sim workloads (fabric-attached handlers, "
     "request_read/request_write, protocol timers, detector observe_*)"),
    ("protocol.handled", "count", "lower", "sim",
     "wall_s on both sim workloads; equals fabric.delivered"),
    ("protocol.nacks", "count", "lower", "sim",
     "sim.cycles and wall_s on storm256"),
    ("protocol.retry_ratio", "ratio", "lower", "sim",
     "sim.cycles and wall_s on storm256: retries / processor misses"),
    ("protocol.delegations", "count", "higher", "sim",
     "speedups and traffic on headline16"),
    ("protocol.updates_sent", "count", "higher", "sim",
     "speedups and traffic on headline16"),
    ("protocol.update_use", "ratio", "higher", "sim",
     "speedups and traffic on headline16: update.consumed / update.sent"),
    ("protocol.miss_local", "count", "higher", "sim",
     "speedups on headline16"),
    ("protocol.miss_2hop", "count", "lower", "sim",
     "speedups on headline16"),
    ("protocol.miss_3hop", "count", "lower", "sim",
     "speedups on headline16"),
    ("cache.access_s", "s", "lower", "host",
     "wall_s on headline16 more than on storm256 (PrivateCacheHierarchy "
     "and RAC public methods)"),
    ("cache.accesses", "count", "lower", "sim",
     "wall_s on headline16"),
    ("cache.l1_hits", "count", "higher", "sim", "wall_s on headline16"),
    ("cache.l2_hits", "count", "higher", "sim", "wall_s on headline16"),
    ("cache.rac_hits", "count", "higher", "sim",
     "wall_s and speedups on headline16"),
    ("directory.lookup_s", "s", "lower", "host",
     "wall_s on headline16, and on storm256 through limited:2 target "
     "expansion (DirectoryCache, HomeMemory, DirectoryEntry, "
     "DirectoryFormat, AddressMap)"),
    ("directory.lookups", "count", "lower", "sim",
     "wall_s on both sim workloads"),
    ("checker.s", "s", "lower", "host",
     "wall_s on headline16; under 1% on storm256"),
    ("checker.records", "count", "lower", "sim",
     "wall_s on headline16; reads_checked + writes_checked"),
    ("obs.s", "s", "lower", "host",
     "wall_s on storm256 only; reads 0 on headline16"),
    ("obs.calls", "count", "lower", "host",
     "wall_s on storm256 only; reads 0 on headline16"),
    ("harness.overhead_s", "s", "lower", "host",
     "wall_s on headline16 (21 jobs) more than on storm256: round wall "
     "time minus the job spans"),
    ("harness.job_self_s", "s", "lower", "host",
     "wall_s: per-job glue (run_app, payload and metrics) outside every "
     "program layer"),
    ("mc.states", "count", "lower", "sim",
     "work_per_s, wall_s and peak_rss_mb on verify (summed over checks)"),
    ("mc.transitions", "count", "lower", "sim",
     "wall_s on verify (summed over checks)"),
    ("mc.max_depth", "count", "lower", "sim",
     "wall_s on verify (deepest of the checks)"),
    ("mc.construct_s", "s", "lower", "host",
     "setup_s on verify (model + ModelChecker construction)"),
    ("mc.rules_s", "s", "lower", "host", "wall_s and work_per_s on verify"),
    ("mc.invariants_s", "s", "lower", "host",
     "wall_s and work_per_s on verify"),
    ("mc.canonical_s", "s", "lower", "host",
     "wall_s and work_per_s on verify (symmetry canonicaliser)"),
    ("mc.engine_self_s", "s", "lower", "host",
     "wall_s, work_per_s and peak_rss_mb on verify (BFS, visited set)"),
    ("speedup_small", "x", "higher", "sim",
     "headline16 geomean speedup of the small (32e + 32 KB) config"),
    ("speedup_large", "x", "higher", "sim",
     "headline16 geomean speedup of the large (1K + 1 MB) config"),
    ("paper_err", "abs", "lower", "sim",
     "headline16: mean |ours - paper| over the six headline numbers"),
    ("trace.overhead", "x", "lower", "host",
     "traced round wall / untraced round wall of the same run"),
    ("trace.coverage", "ratio", "higher", "host",
     "share of the traced round wall attributed to a program layer "
     "(everything but harness.*)"),
)

#: Layer -> per-layer time metric name (the traced run's self times).
LAYER_TIME_METRIC = {
    "workloads": "workloads.build_s",
    "sim.construct": "sim.construct_s",
    "sim.run": "sim.loop_self_s",
    "network.send": "network.send_s",
    "network.deliver": "network.deliver_s",
    "protocol": "protocol.handle_s",
    "cache": "cache.access_s",
    "directory": "directory.lookup_s",
    "checker": "checker.s",
    "obs": "obs.s",
    "harness.round": "harness.overhead_s",
    "harness.job": "harness.job_self_s",
    "mc.construct": "mc.construct_s",
    "mc.engine": "mc.engine_self_s",
    "mc.rules": "mc.rules_s",
    "mc.invariants": "mc.invariants_s",
    "mc.canonical": "mc.canonical_s",
}
