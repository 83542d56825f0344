"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload headline16 [--seed N]
        [--seconds S] [--trace 0|1]

Workloads: ``headline16``, ``storm256``, ``verify`` (see
``perfbench/spec.py`` for why each exists).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the traced layer split.  A
human-readable report goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` beside this directory;
without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A run that is still going after this many seconds is stopped and
#: reported as failed, so that even a hung simulation ends the run
#: within three minutes.
DEADLINE_S = 165


class DeadlineExceeded(Exception):
    """The run overran its deadline; the operation in flight fails."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded("run exceeded %d s" % DEADLINE_S)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("headline16", "storm256", "verify"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fileobj:
        return json.load(fileobj)


def report(workload, seed, args, result, stream):
    """The human-readable report: every metric with unit and label."""
    from perfbench import spec

    labels = {m["name"]: (m["label"], m["better"]) for m in spec.END_TO_END}
    labels.update({name: (label, better)
                   for name, _u, better, label, _m in spec.PER_LAYER})
    stream.write("%s seed %s (input seed %d), %s run, %d rounds\n"
                 % (workload.name, args.seed, seed,
                    "traced" if args.trace else "measured",
                    result["rounds"]))
    for name, (value, unit) in result["metrics"].items():
        label, better = labels[name]
        stream.write("  %-28s %16.6g %-6s %-4s %s is better\n"
                     % (name, value, unit, label, better))
    for name, value in sorted(result["sim"].items()):
        stream.write("  %-28s %16.6g        sim\n" % ("sim:" + name, value))
    stream.write("  attempted %d, failed %d\n"
                 % (result["attempted"], result["failed"]))
    for reason in result["reasons"][:20]:
        stream.write("  FAIL: %s\n" % reason)
    stream.flush()


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write("perfbench: no src/repro beside %s; run from a full "
                         "checkout of the repository\n" % HERE)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import measure, workloads

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        workload = workloads.make(args.workload, load_expected())
        seed = workload.input_seed(args.seed)

        def log(text):
            sys.stderr.write("[%s] %s\n" % (args.workload, text))
            sys.stderr.flush()

        if args.trace:
            result = measure.traced_run(workload, seed, args.seconds, log)
        else:
            result = measure.measured_run(workload, seed, args.seconds, log)
    finally:
        signal.alarm(0)
    report(workload, seed, args, result, sys.stderr)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
