#!/usr/bin/env python
"""Regression gate for the committed benchmark records.

Every committed ``BENCH_NNNN.json`` belongs to a *group*: ``sweep``
(the 16-node headline sweep) or ``scale`` (the scaling study).  For each
group the gate takes that group's *latest* record (highest number),
re-runs the same command that produced it (cold cache, same
scale/seed/worker request), and fails if the fresh wall-clock mean
regresses more than ``--tolerance`` against the committed mean.  A new
record in one group therefore never retires the gate on another.

One trajectory table per group — every committed record of the group in
order — is printed on every invocation, pass or fail, so a regression
log always shows where each number came from and how it has moved
across PRs.

The tolerance default is deliberately loose (50%, overridable via
``--tolerance`` or the ``BENCH_GATE_TOLERANCE`` environment variable):
shared CI runners and 1-core VMs drift by tens of percent, and the gate
exists to catch order-of-magnitude cliffs, not 5% noise.  The fresh
measurement takes the best of ``--reruns`` runs (default 2) for the
same reason — the *minimum* of a few runs is the standard noise-robust
wall-clock estimator.

Usage::

    python tools/bench_gate.py                   # latest record per group
    python tools/bench_gate.py --record BENCH_0006.json --tolerance 0.5
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile

DEFAULT_TOLERANCE = 0.50
DEFAULT_RERUNS = 2

_RECORD_RE = re.compile(r"BENCH_(\d+)\.json$")


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def committed_records(root=None):
    """All ``BENCH_NNNN.json`` records in numeric order."""
    root = root or repo_root()
    records = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = _RECORD_RE.search(os.path.basename(path))
        if match:
            records.append((int(match.group(1)), path))
    records.sort()
    return [path for _num, path in records]


def load_record(path):
    with open(path) as fileobj:
        doc = json.load(fileobj)
    bench = doc["benchmarks"][0]
    # Job accounting lives in the "sweep" block for `repro sweep` records
    # and in the benchmark entry's extra_info for `repro scale` ones.
    accounting = doc.get("sweep") or {
        "total": bench.get("extra_info", {}).get("total_jobs")}
    return bench["stats"], bench["params"], accounting, \
        bench.get("group", "sweep")


def records_by_group(records):
    """``{group: [path, ...]}``, each list in numeric record order."""
    groups = {}
    for path in records:
        groups.setdefault(load_record(path)[3], []).append(path)
    return groups


def print_trajectory(group, records, fresh=None):
    """One group's benchmark history as a table; ``fresh`` (mean
    seconds) is appended as a final uncommitted row when given."""
    rows = []
    prev_mean = None
    for path in records:
        stats, params, _accounting, _group = load_record(path)
        mean = stats["mean"]
        delta = ("%+.0f%%" % (100.0 * (mean / prev_mean - 1.0))
                 if prev_mean else "-")
        rows.append((os.path.basename(path), mean, stats.get("rounds", 1),
                     params.get("jobs"), params.get("scale"), delta))
        prev_mean = mean
    if fresh is not None:
        delta = ("%+.0f%%" % (100.0 * (fresh / prev_mean - 1.0))
                 if prev_mean else "-")
        rows.append(("(fresh rerun)", fresh, None, None, None, delta))
    print("benchmark trajectory (%s group, wall-clock):" % group)
    print("  %-18s %10s %7s %6s %7s %8s"
          % ("record", "mean", "rounds", "jobs", "scale", "vs prev"))
    for name, mean, rounds, jobs, scale, delta in rows:
        print("  %-18s %9.3fs %7s %6s %7s %8s"
              % (name, mean,
                 rounds if rounds is not None else "-",
                 jobs if jobs is not None else "-",
                 scale if scale is not None else "-", delta))


def rerun(params, out_path, group="sweep"):
    """Re-run the sweep a record came from; the record's ``group`` picks
    the command (``sweep`` -> the headline sweep, ``scale`` -> the
    scaling study) and its params are the exact CLI arguments."""
    if group == "scale":
        command = [
            sys.executable, "-m", "repro", "scale",
            "--nodes", str(params["nodes"]),
            "--formats", str(params["formats"]),
            "--protocols", str(params["protocols"]),
            "--scale", str(params["scale"]),
            "--seed", str(params["seed"]),
            "--jobs", str(params["jobs"]),
            "--no-cache",
            "--json", out_path,
        ]
    else:
        command = [
            sys.executable, "-m", "repro", "sweep", "headline",
            "--scale", str(params["scale"]),
            "--jobs", str(params["jobs"]),
            "--seed", str(params["seed"]),
            "--no-cache",
            "--json", out_path,
        ]
    print("+ " + " ".join(command), flush=True)
    subprocess.run(command, check=True)


def gate(target, history, tolerance, reruns):
    """Re-run ``target``'s command, print its group's trajectory and
    verdict, and return True when it passes."""
    committed_stats, params, committed_sweep, group = load_record(target)
    committed_mean = committed_stats["mean"]

    fresh_means = []
    fresh_sweep = None
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(max(1, reruns)):
            fresh_path = os.path.join(tmp, "fresh_%d.json" % attempt)
            rerun(params, fresh_path, group=group)
            stats, _params, fresh_sweep, _group = load_record(fresh_path)
            fresh_means.append(stats["mean"])
    fresh_mean = min(fresh_means)

    print()
    print_trajectory(group, history, fresh=fresh_mean)
    print()

    if (committed_sweep and fresh_sweep
            and fresh_sweep.get("total") != committed_sweep.get("total")):
        print("bench gate: job count changed (%s -> %s); re-record %s"
              % (committed_sweep.get("total"), fresh_sweep.get("total"),
                 os.path.basename(target)))
        return False

    ratio = fresh_mean / committed_mean if committed_mean else float("inf")
    budget = 1.0 + tolerance
    verdict = "ok" if ratio <= budget else "REGRESSION"
    print("bench gate vs %s (%s): committed %.2fs, fresh best-of-%d %.2fs "
          "(%.2fx, budget %.2fx) -> %s"
          % (os.path.basename(target), group, committed_mean,
             len(fresh_means), fresh_mean, ratio, budget, verdict))
    return ratio <= budget


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", default=None,
                        help="benchmark record to gate against "
                             "(default: the latest committed BENCH_*.json "
                             "of each group)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "BENCH_GATE_TOLERANCE", DEFAULT_TOLERANCE)),
                        help="allowed fractional regression "
                             "(default %.2f)" % DEFAULT_TOLERANCE)
    parser.add_argument("--reruns", type=int, default=DEFAULT_RERUNS,
                        help="fresh runs per record; the best (minimum) "
                             "mean is compared (default %d)" % DEFAULT_RERUNS)
    args = parser.parse_args(argv)

    groups = records_by_group(committed_records())
    if args.record:
        group = load_record(args.record)[3]
        targets = [(args.record, groups.get(group, []))]
    else:
        targets = [(history[-1], history) for history in groups.values()]
    if not targets:
        print("bench gate: no committed BENCH_*.json records found")
        return 1

    passed = [gate(target, history, args.tolerance, args.reruns)
              for target, history in targets]
    if len(passed) > 1:
        print()
        print("bench gate: %d of %d groups ok" % (sum(passed), len(passed)))
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
