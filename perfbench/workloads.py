"""The three workloads: what one round runs and how its outputs are checked.

A *round* is one full execution of a workload through the same entry
points a user's command takes; an *operation* is one simulation job or one
model check inside it.  A round's outputs are checked against
``perfbench/expected.json``: a simulation must reproduce the recorded
sha256 digest of its ``RunResult.stats`` + ``cycles``, a model check its
exact state, transition and depth counts.  A raise, a stall
(``SimulationError``), a coherence-checker trip or an mc invariant
violation fails the operation too.
"""

import contextlib
import gc
import hashlib
import io
import json
from collections import Counter
from time import perf_counter, process_time

#: headline16 runs the headline sweep at this workload scale.  Scale 1.0
#: takes 41-47 s per round serially; below ~0.4 the producer-consumer
#: phases are too short for the detector to delegate, and the small and
#: large configurations read the same.  At 0.5 the mechanisms engage
#: (speedup ~1.10, remote-miss cut ~35%) in 8-11 s per round on a 2-vCPU VM.
HEADLINE_SCALE = 0.5

#: storm256: one 256-node limited:2 cell of `repro scale` at scale 1.0.
STORM_NODES = 256
STORM_FORMAT = "limited:2"
STORM_SCALE = 1.0

#: verify: (label, `repro verify` arguments).
VERIFY_CHECKS = (
    ("adaptive-3", ["verify"]),
    ("adaptive-4-no-delegation", ["verify", "--nodes", "4",
                                  "--no-delegation"]),
    ("mesi-4", ["verify", "--protocol", "mesi", "--nodes", "4"]),
)


class SetupOnly(BaseException):
    """Raised where the first event or state would fire, to time a set-up
    without running it.  A BaseException, so the program's own
    ``except Exception`` handlers (``repro verify``'s violation report)
    let it through."""


def run_digest(cycles, stats):
    """sha256 of a simulation's canonical ``stats`` + ``cycles``."""
    canonical = json.dumps({"cycles": cycles, "stats": stats},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def count_trace(streams):
    """Op totals of the per-CPU traces handed to ``System.run``."""
    from repro.sim.trace import Read, Write

    kinds = Counter()
    for ops in streams:
        if not isinstance(ops, list):
            raise TypeError("per-CPU trace is a %s, not a list; counting it "
                            "would consume it" % type(ops).__name__)
        kinds.update(map(type, ops))
    return {"ops": sum(kinds.values()), "reads": kinds[Read],
            "writes": kinds[Write]}


class JobProbe:
    """Per-job boundaries: when each job starts, when its first event or
    state is about to fire, and the exact counters it ends with.

    Installed in the measured run too, where it costs two extra calls per
    job (21 per headline16 round), and outermost in the traced run.
    """

    def __init__(self, clock=None):
        self.records = []
        self.current = None
        self.setup_only = False
        # Counting trace ops is traced-run work: it is charged to the
        # benchmark's own layer, never to a program layer.
        self._count = (clock.wrap(count_trace, "bench", "count_trace")
                       if clock is not None else None)

    def begin(self, key):
        record = {"key": key, "cpu_start": process_time(),
                  "start": perf_counter()}
        self.records.append(record)
        self.current = record
        return record

    def end(self):
        self.current["end"] = perf_counter()
        self.current["cpu_end"] = process_time()
        self.current = None

    def take(self):
        records, self.records = self.records, []
        return records

    def install(self, patches):
        from repro.harness import sweep
        from repro.mc.engine import ModelChecker
        from repro.sim.system import System

        probe = self
        execute_job = sweep._execute_job

        def probed_execute_job(job, runner=None):
            probe.begin(job)
            try:
                return execute_job(job, runner)
            finally:
                probe.end()

        def system_run(original):
            def run(system, per_cpu_ops, *args, **kwargs):
                record = probe.current
                if record is None:
                    return original(system, per_cpu_ops, *args, **kwargs)
                record["entry"] = perf_counter()
                if probe.setup_only:
                    raise SetupOnly()
                if probe._count is not None:
                    record.update(probe._count(per_cpu_ops))
                result = original(system, per_cpu_ops, *args, **kwargs)
                checker = system.checker
                record.update(
                    events=result.events_processed,
                    retired=result.ops_executed,
                    delivered=system.fabric.delivered,
                    checked_reads=checker.reads_checked if checker else 0,
                    checked_writes=checker.writes_checked if checker else 0,
                    traced=system.tracer is not None)
                return result
            return run

        def checker_run(original):
            def run(checker):
                record = probe.current
                if record is None:
                    return original(checker)
                record["entry"] = perf_counter()
                if probe.setup_only:
                    raise SetupOnly()
                result = original(checker)
                record.update(
                    result=[result.states_explored, result.transitions,
                            result.max_depth],
                    rules=len(checker.rules),
                    invariants=len(checker.invariants),
                    initial=len(checker.initial_states))
                return result
            return run

        patches.replace(sweep, "_execute_job", probed_execute_job)
        patches.wrap_method(System, "run", system_run)
        patches.wrap_method(ModelChecker, "run", checker_run)


class Round:
    """What one round did: timings, per-operation verdicts, exact counters
    and the modelled outputs."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.jobs = {}            # operation label -> JobProbe record
        self.work = 0             # events (sims) or states (verify)
        self.verdicts = {}        # operation label -> None (ok) or reason
        self.counters = {}        # exact, must repeat on every round
        self.stats = Counter()    # summed program stats (sims)
        self.sim = {}             # modelled outputs (speedups, paper_err)
        self.error = None         # exception that aborted the round

    @property
    def failed(self):
        return sum(1 for reason in self.verdicts.values() if reason)

    @property
    def setup(self):
        """Seconds before the first event or state, summed over jobs."""
        return sum(setup_seconds(rec) for rec in self.jobs.values())


def setup_seconds(record):
    """A job's set-up: from its start to its first event or state."""
    return record["entry"] - record["start"]


def _capturing_engine(**kwargs):
    """A serial, uncached SweepEngine that keeps what ``run_many`` got and
    returned, so the per-job outputs of a harness function can be checked
    even where the function itself only returns aggregates."""
    from repro.harness.sweep import SweepEngine

    class CapturingEngine(SweepEngine):
        def __init__(self):
            super().__init__(jobs=1, cache=False, **kwargs)
            self.batches = []

        def run_many(self, jobs):
            results = super().run_many(jobs)
            self.batches.append((dict(jobs), results))
            return results

    return CapturingEngine()


class SimWorkload:
    """Shared round logic of the two simulator workloads."""

    name = None
    default_seed = None
    #: Seeds with recorded digests that ``--seed`` folds into, and one more
    #: recorded seed kept out of the pool for checking claims on a seed a
    #: change was not written against.
    pool = ()
    held_out = None
    layers = "sim"

    def __init__(self, expected):
        self.expected = expected
        self._jobs = {}

    def input_seed(self, seed):
        """The workload seed ``--seed`` selects: itself when its outputs are
        recorded, else the pool entry it folds onto."""
        if seed is None:
            return self.default_seed
        if seed == self.held_out or seed in self.pool:
            return seed
        return self.pool[seed % len(self.pool)]

    def labels(self, seed):
        """The operations a round at ``seed`` is expected to run."""
        return list(self.expected["seeds"].get(str(seed), ()))

    def run(self, seed, probe):
        """The timed part of a round: the user's entry point."""
        raise NotImplementedError

    def collect(self, seed, raw, records):
        """Check and summarise a finished round (not timed)."""
        engine, out = raw
        round_ = Round()
        jobs, results = engine.batches[0]
        self._jobs[seed] = ({self.label(key): job
                             for key, job in jobs.items()}, engine.runner)
        label_of = {id(job): self.label(key) for key, job in jobs.items()}
        expected = self.expected["seeds"].get(str(seed), {})
        digests = {}
        for key, job in jobs.items():
            label = self.label(key)
            cycles, stats = self.outputs(results[key])
            digests[label] = run_digest(cycles, stats)
            round_.stats.update(stats)
            round_.sim["cycles"] = round_.sim.get("cycles", 0) + cycles
            want = expected.get(label)
            if want is None:
                round_.verdicts[label] = "no recorded digest for seed %d" % seed
            elif want != digests[label]:
                round_.verdicts[label] = "digest %s != recorded %s" % (
                    digests[label][:12], want[:12])
            else:
                round_.verdicts[label] = None
        for label in expected:
            round_.verdicts.setdefault(label, "job missing from the round")
        by_label = {label_of[id(rec["key"])]: rec for rec in records
                    if id(rec["key"]) in label_of}
        round_.jobs = by_label
        round_.work = sum(rec["events"] for rec in by_label.values())
        round_.counters = {
            "digests": digests,
            "events": round_.work,
            "delivered": sum(rec["delivered"] for rec in by_label.values()),
            "retired": sum(rec["retired"] for rec in by_label.values()),
        }
        self.summarise(out, round_)
        return round_

    def summarise(self, out, round_):
        """Workload-specific modelled outputs."""

    def setup_once(self, seed, probe):
        """Time one set-up of every job of a round, stopping each at
        ``System.run`` (the first event): {label: seconds}."""
        from repro.harness import sweep

        jobs, runner = self._jobs[seed]
        probe.setup_only = True
        gc_was_enabled = gc.isenabled()
        gc.disable()  # as SweepEngine's serial batches run
        try:
            for job in jobs.values():
                sweep._execute_job(job, runner)
        finally:
            probe.setup_only = False
            if gc_was_enabled:
                gc.enable()
        records = probe.take()
        if any("entry" not in rec for rec in records):
            raise RuntimeError("a set-up failed before its first event")
        return {label: setup_seconds(rec)
                for label, rec in zip(jobs, records)}


class Headline16(SimWorkload):
    """``experiments.headline``: 7 apps x {base, small, large}, 16 nodes."""

    name = "headline16"
    default_seed = 12345
    pool = (12345,) + tuple(range(1, 16))
    held_out = 424242

    def run(self, seed, probe):
        from repro.harness import experiments

        engine = _capturing_engine()
        out = experiments.headline(scale=HEADLINE_SCALE, seed=seed,
                                   engine=engine)
        return engine, out

    @staticmethod
    def label(key):
        return "%s/%s" % key

    @staticmethod
    def outputs(run):
        return run.metrics.cycles, run.stats

    def summarise(self, out, round_):
        from repro.harness.experiments import PAPER

        errors = []
        for config in ("small", "large"):
            measured = out["measured"][config]
            paper = PAPER["headline"][config]
            round_.sim["speedup_" + config] = measured[0]
            errors.extend(abs(m - p) for m, p in zip(measured, paper))
        round_.sim["paper_err"] = sum(errors) / len(errors)


class Storm256(SimWorkload):
    """One `repro scale --nodes 256 --formats limited:2` cell."""

    name = "storm256"
    default_seed = 0
    pool = tuple(range(16))
    held_out = 424242

    def run(self, seed, probe):
        from repro.harness.scale import run_scale, scale_runner

        engine = _capturing_engine(runner=scale_runner)
        report = run_scale(nodes=(STORM_NODES,), formats=(STORM_FORMAT,),
                           protocols=("adaptive",), seed=seed,
                           scale=STORM_SCALE, engine=engine)
        return engine, report.rows()

    @staticmethod
    def label(key):
        return "%d/%s/%s" % key

    @staticmethod
    def outputs(payload):
        return payload["cycles"], payload["stats"]


class Verify:
    """Three exhaustive `repro verify` checks, through ``cmd_verify``."""

    name = "verify"
    default_seed = 0
    layers = "mc"

    def __init__(self, expected):
        from repro import cli

        self.expected = expected
        self._cmd_verify = cli.cmd_verify
        parser = cli.build_parser()
        self._checks = [(label, parser.parse_args(argv))
                        for label, argv in VERIFY_CHECKS]
        # The traced run wraps this as the job span.
        self.check = self._check

    def input_seed(self, seed):
        """Exhaustive checks take no random input: every seed runs the
        same three checks."""
        return self.default_seed if seed is None else seed

    def labels(self, seed):
        return [label for label, _args in self._checks]

    def _check(self, args):
        with contextlib.redirect_stdout(io.StringIO()):
            return self._cmd_verify(args)

    def run(self, seed, probe):
        codes = {}
        for label, args in self._checks:
            probe.begin(label)
            try:
                codes[label] = self.check(args)
            except Exception as err:  # a crash fails this check only
                codes[label] = "%s: %s" % (type(err).__name__, err)
            finally:
                probe.end()
        return codes

    def collect(self, seed, codes, records):
        round_ = Round()
        by_label = {rec["key"]: rec for rec in records}
        results = {}
        for label, _args in self._checks:
            rec = by_label.get(label, {})
            code = codes.get(label)
            want = self.expected["checks"].get(label)
            got = rec.get("result")
            results[label] = got
            if code != 0:
                round_.verdicts[label] = "repro verify returned %r" % (code,)
            elif want is None:
                round_.verdicts[label] = "no recorded counts"
            elif got != want:
                round_.verdicts[label] = "counts %r != recorded %r" % (
                    got, want)
            else:
                round_.verdicts[label] = None
        done = [rec for rec in by_label.values() if "result" in rec]
        round_.jobs = {label: rec for label, rec in by_label.items()
                       if "entry" in rec}
        round_.work = sum(rec["result"][0] for rec in done)
        round_.counters = {"results": results}
        round_.sim = {
            "states": sum(rec["result"][0] for rec in done),
            "transitions": sum(rec["result"][1] for rec in done),
            "max_depth": max((rec["result"][2] for rec in done), default=0),
        }
        return round_

    def setup_once(self, seed, probe):
        """Time one construction of every check's model and ModelChecker,
        stopping at ``ModelChecker.run``."""
        probe.setup_only = True
        try:
            for label, args in self._checks:
                probe.begin(label)
                try:
                    self._check(args)
                except SetupOnly:
                    pass
                finally:
                    probe.end()
        finally:
            probe.setup_only = False
        records = probe.take()
        if any("entry" not in rec for rec in records):
            raise RuntimeError("a model construction failed")
        return {rec["key"]: setup_seconds(rec) for rec in records}


WORKLOAD_CLASSES = {cls.name: cls for cls in (Headline16, Storm256, Verify)}


def make(name, expected):
    """The named workload, checked against its section of ``expected``."""
    return WORKLOAD_CLASSES[name](expected[name])
