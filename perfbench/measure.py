"""The measured run and the traced run of one workload.

The measured run (``--trace 0``) repeats the workload's round until the
time budget is spent (at least :data:`MIN_ROUNDS` rounds), checks every
round's outputs, and reports the end-to-end metrics as medians over
rounds, taken job by job (:func:`per_job_median`) so that a burst of host
noise during one job of one round does not move the figure.  Only the
job boundaries are probed (:class:`~perfbench.workloads.JobProbe`).

The traced run (``--trace 1``) first runs one untraced reference round,
then wraps every layer (:mod:`perfbench.layers`) and repeats traced
rounds.  Each traced round must reconcile its span counts with the
program's own exact counters and reproduce the reference round's digests
and counters; any mismatch fails the run.
"""

import gc
import resource
import statistics
from time import perf_counter, process_time

from . import layers, spec, workloads

#: A measured run has at least this many rounds, whatever the budget.
MIN_ROUNDS = 3
#: Set-up is additionally timed on its own, at least this many times.
MIN_SETUPS = 5
MAX_SETUPS = 200


def _median(values):
    return statistics.median(values) if values else 0.0


def _job_wall(record):
    return record["end"] - record["start"]


def _job_cpu(record):
    return record["cpu_end"] - record["cpu_start"]


def per_job_median(rounds, total, part):
    """One round's figure, robust to bursts of host noise: each job's
    median over the rounds, summed, plus the median of what the rounds
    spent outside their jobs.  ``total(round)`` is the round's figure,
    ``part(record)`` a job's share of it."""
    labels = set(rounds[0].jobs).intersection(*(r.jobs for r in rounds))
    per_job = sum(_median([part(r.jobs[label]) for r in rounds])
                  for label in labels)
    rest = _median([total(r) - sum(map(part, r.jobs.values()))
                    for r in rounds])
    return per_job + rest


def one_round(workload, seed, probe, run=None):
    """Run one round from a clean heap and an empty message pool, and
    check its outputs.  A round that raises fails all its operations."""
    from repro.network.message import Message

    run = run or workload.run
    gc.collect()
    Message.clear_pool()
    probe.take()
    wall0 = perf_counter()
    cpu0 = process_time()
    try:
        raw = run(seed, probe)
        error = None
    except Exception as err:  # the round's failure is the measurement
        error = err
    wall = perf_counter() - wall0
    cpu = process_time() - cpu0
    records = probe.take()
    pool_allocs = Message.pool_stats()["allocations"]
    if error is None:
        try:
            round_ = workload.collect(seed, raw, records)
        except Exception as err:
            error = err
    if error is not None:
        round_ = workloads.Round()
        round_.error = "%s: %s" % (type(error).__name__, error)
        round_.verdicts = {label: round_.error
                           for label in workload.labels(seed)}
    round_.wall = wall
    round_.cpu = cpu
    round_.counters["pool_allocs"] = pool_allocs
    return round_


def _check_repeats(rounds):
    """Every exact counter must repeat: a round whose counters differ from
    the first round's fails all its operations."""
    first = next((r for r in rounds if r.error is None), None)
    for round_ in rounds:
        if round_ is first or round_.error is not None:
            continue
        if round_.counters != first.counters:
            diff = sorted(key for key in first.counters
                          if round_.counters.get(key) != first.counters[key])
            for label in round_.verdicts:
                round_.verdicts[label] = ("exact counters differ from the "
                                          "first round: %s" % ", ".join(diff))


def _summary(rounds, problems=()):
    attempted = sum(len(r.verdicts) for r in rounds)
    failed = sum(r.failed for r in rounds)
    reasons = sorted({reason for r in rounds
                      for reason in r.verdicts.values() if reason})
    return {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "reasons": list(problems) + reasons,
    }


def measured_run(workload, seed, seconds, log):
    """``--trace 0``: the end-to-end metrics."""
    started = perf_counter()
    rounds = []
    with layers.Patches() as patches:
        probe = workloads.JobProbe()
        probe.install(patches)
        while True:
            round_ = one_round(workload, seed, probe)
            rounds.append(round_)
            log("round %d: wall %.3fs cpu %.3fs setup %.3fs failed %d/%d"
                % (len(rounds), round_.wall, round_.cpu, round_.setup,
                   round_.failed, len(round_.verdicts)))
            if round_.error is not None:
                break
            elapsed = perf_counter() - started
            typical = _median([r.wall for r in rounds])
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
                break
        _check_repeats(rounds)
        ok = [r for r in rounds if r.error is None]
        # Set-up samples per job: one from every round, then set-ups
        # timed on their own until the budget is spent.
        setups = {label: [workloads.setup_seconds(r.jobs[label]) for r in ok]
                  for label in (ok[0].jobs if ok else ())}
        extra = 0
        while ok and len(ok) == len(rounds) and (
                extra < MIN_SETUPS or (perf_counter() - started < seconds
                                       and extra < MAX_SETUPS)):
            gc.collect()
            for label, seconds_ in workload.setup_once(seed, probe).items():
                setups[label].append(seconds_)
            extra += 1
    if ok:
        wall = per_job_median(ok, lambda r: r.wall, _job_wall)
        cpu = per_job_median(ok, lambda r: r.cpu, _job_cpu)
        work = ok[0].work
    else:
        wall = _median([r.wall for r in rounds])
        cpu = _median([r.cpu for r in rounds])
        work = 0
    metrics = {
        "wall_s": wall,
        "cpu_s": cpu,
        "work_per_s": work / cpu if cpu > 0 else 0.0,
        "setup_s": sum(_median(samples) for samples in setups.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    result = _summary(rounds)
    result["metrics"] = {m["name"]: (metrics[m["name"]], m["unit"])
                         for m in spec.END_TO_END}
    result["rounds"] = len(rounds)
    result["sim"] = _sim_outputs((ok or rounds)[0])
    return result


def _sim_outputs(round_):
    """The modelled figures of one round, for the human-readable report."""
    stats = round_.stats
    out = dict(round_.sim)
    if stats:
        out["traffic_bytes"] = stats["msg.bytes"]
    out["fail_rate"] = (round_.failed / len(round_.verdicts)
                        if round_.verdicts else 1.0)
    return out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _reconcile_sim(clock, round_):
    """(what, span count, program counter) triples that must agree."""
    recs = [rec for rec in round_.jobs.values() if "events" in rec]
    stats = round_.stats
    delivered = sum(rec["delivered"] for rec in recs)
    traced_delivered = sum(rec["delivered"] for rec in recs if rec["traced"])
    reads = clock.count("Hub.request_read")
    writes = clock.count("Hub.request_write")
    return [
        ("fabric.send spans vs fabric.delivered",
         clock.count("fabric.send"), delivered),
        ("fabric.deliver spans vs fabric.delivered",
         clock.count("fabric.deliver"), delivered),
        ("handler spans vs fabric.delivered",
         clock.count("handle.table") + clock.count("handle.dispatch"),
         delivered),
        ("System.run spans vs jobs", clock.count("System.run"), len(recs)),
        ("System.__init__ spans vs jobs",
         clock.count("System.__init__"), len(recs)),
        ("job spans vs jobs", clock.count("job"), len(recs)),
        ("request_read spans vs miss.read + miss.read_replay",
         reads, stats["miss.read"] + stats["miss.read_replay"]),
        ("request_write spans vs miss.write + miss.write_replay",
         writes, stats["miss.write"] + stats["miss.write_replay"]),
        ("hierarchy.read spans vs trace reads + read completions",
         clock.count("PrivateCacheHierarchy.read"),
         sum(rec["reads"] for rec in recs) + reads),
        ("hierarchy.write spans vs trace writes + write completions",
         clock.count("PrivateCacheHierarchy.write"),
         sum(rec["writes"] for rec in recs) + writes),
        ("record_read spans vs checker.reads_checked",
         clock.count("CoherenceChecker.record_read"),
         sum(rec["checked_reads"] for rec in recs)),
        ("record_write spans vs checker.writes_checked",
         clock.count("CoherenceChecker.record_write"),
         sum(rec["checked_writes"] for rec in recs)),
        ("Tracer.msg_send spans vs fabric.delivered of traced jobs",
         clock.count("Tracer.msg_send"), traced_delivered),
        ("trace ops built vs ops retired",
         sum(rec["ops"] for rec in recs), sum(rec["retired"] for rec in recs)),
    ]


def _reconcile_mc(clock, round_):
    recs = [rec for rec in round_.jobs.values() if "result" in rec]
    return [
        ("rule calls vs states x rules", clock.count("rule"),
         sum(rec["result"][0] * rec["rules"] for rec in recs)),
        ("invariant calls vs states x invariants", clock.count("invariant"),
         sum(rec["result"][0] * rec["invariants"] for rec in recs)),
        ("canonicaliser calls vs transitions + initial states",
         clock.count("canonical"),
         sum(rec["result"][1] + rec["initial"] for rec in recs)),
        ("ModelChecker.run spans vs checks",
         clock.count("ModelChecker.run"), len(recs)),
        ("job spans vs checks", clock.count("job"), len(recs)),
    ]


def _layer_counts(clock, round_):
    """The exact per-layer counters of one traced round."""
    stats = round_.stats
    recs = round_.jobs.values()
    sends = clock.count("fabric.send")
    allocs = round_.counters["pool_allocs"]
    misses = stats["miss.read"] + stats["miss.write"]
    sent = stats["update.sent"]
    values = {
        "workloads.ops": sum(rec.get("ops", 0) for rec in recs),
        "sim.ops_retired": sum(rec.get("retired", 0) for rec in recs),
        "events.fired": sum(rec.get("events", 0) for rec in recs),
        "sim.cycles": round_.sim.get("cycles", 0),
        "network.sends": sends,
        "network.pool_allocs": allocs,
        "network.pool_reuse": 1.0 - allocs / sends if sends else 0.0,
        "network.bytes": stats["msg.bytes"],
        "protocol.handled": (clock.count("handle.table")
                             + clock.count("handle.dispatch")),
        "protocol.nacks": stats["protocol.nack"],
        "protocol.retry_ratio": (stats["protocol.retry"] / misses
                                 if misses else 0.0),
        "protocol.delegations": stats["dele.delegate"],
        "protocol.updates_sent": sent,
        "protocol.update_use": stats["update.consumed"] / sent if sent else 0.0,
        "protocol.miss_local": stats["miss.local"],
        "protocol.miss_2hop": stats["miss.remote_2hop"],
        "protocol.miss_3hop": stats["miss.remote_3hop"],
        "cache.accesses": clock.layer_calls("cache"),
        "cache.l1_hits": stats["hit.l1"],
        "cache.l2_hits": stats["hit.l2"],
        "cache.rac_hits": stats["hit.rac"],
        "directory.lookups": clock.layer_calls("directory"),
        "checker.records": sum(rec.get("checked_reads", 0)
                               + rec.get("checked_writes", 0)
                               for rec in recs),
        "obs.calls": clock.layer_calls("obs"),
        "mc.states": round_.sim.get("states", 0),
        "mc.transitions": round_.sim.get("transitions", 0),
        "mc.max_depth": round_.sim.get("max_depth", 0),
    }
    for name, _unit, _better, _label, _moves in spec.PER_LAYER:
        if name.startswith("network.sent."):
            values[name] = stats["msg.sent." + name[len("network.sent."):]]
    return values


def traced_run(workload, seed, seconds, log):
    """``--trace 1``: the per-layer metrics, reconciled and checked for
    non-interference against an untraced reference round."""
    started = perf_counter()
    problems = []
    with layers.Patches() as patches:
        probe = workloads.JobProbe()
        probe.install(patches)
        reference = one_round(workload, seed, probe)
    log("reference round: wall %.3fs failed %d/%d"
        % (reference.wall, reference.failed, len(reference.verdicts)))
    clock = layers.LayerClock()
    traced, samples = [], []
    with layers.Patches() as patches:
        if workload.layers == "sim":
            layers.install_sim_layers(patches, clock)
        else:
            layers.install_mc_layers(patches, clock)
            patches.replace(workload, "check", clock.wrap(
                workload.check, "harness.job", "job"))
        probe = workloads.JobProbe(clock)
        probe.install(patches)
        run = clock.wrap(workload.run, "harness.round", "round")
        while True:
            clock.reset()
            round_ = one_round(workload, seed, probe, run=run)
            clock.settle()
            traced.append(round_)
            self_s = {layer: clock.layer_self(layer)
                      for layer in spec.LAYER_TIME_METRIC}
            counts = _layer_counts(clock, round_)
            checks = (_reconcile_sim if workload.layers == "sim"
                      else _reconcile_mc)(clock, round_)
            samples.append((self_s, counts))
            log("traced round %d: wall %.3fs failed %d/%d"
                % (len(traced), round_.wall, round_.failed,
                   len(round_.verdicts)))
            if round_.error is None:
                for what, spans, counter in checks:
                    if spans != counter:
                        problems.append("reconciliation: %s: %d != %d"
                                        % (what, spans, counter))
                if round_.counters != reference.counters:
                    diff = sorted(
                        key for key in reference.counters
                        if round_.counters.get(key) != reference.counters[key])
                    problems.append("traced round %d differs from the "
                                    "untraced one in: %s"
                                    % (len(traced), ", ".join(diff)))
                if samples[0][1] != counts:
                    problems.append("traced round %d: per-layer counts differ "
                                    "from the first traced round"
                                    % len(traced))
            if round_.error is not None or problems:
                break
            elapsed = perf_counter() - started
            if elapsed + _median([r.wall for r in traced]) > seconds:
                break
    values = dict(samples[0][1])
    for layer, name in spec.LAYER_TIME_METRIC.items():
        values[name] = _median([s[0][layer] for s in samples])
    traced_wall = _median([r.wall for r in traced])
    program = sum(values[name] for layer, name in
                  spec.LAYER_TIME_METRIC.items()
                  if not layer.startswith("harness."))
    values["trace.coverage"] = program / traced_wall if traced_wall else 0.0
    values["trace.overhead"] = (traced_wall / reference.wall
                                if reference.wall else 0.0)
    for name in ("speedup_small", "speedup_large", "paper_err"):
        values[name] = reference.sim.get(name, 0.0)
    result = _summary([reference] + traced, problems)
    result["metrics"] = {name: (values[name], unit)
                         for name, unit, _b, _l, _m in spec.PER_LAYER}
    result["rounds"] = len(traced)
    result["sim"] = _sim_outputs(reference)
    return result
