"""Re-record the outputs the benchmark checks, in ``perfbench/expected.json``.

Usage, from the repository root::

    python3 perfbench/record.py [--workload headline16|storm256|verify]

For headline16 and storm256 this runs one round at every pooled seed and
at the held-out seed and stores each simulation's stats digest; for
verify it stores each check's state, transition and depth counts.  Only
re-record when a change is *meant* to alter the simulated results, and
say so in CHANGES.md: the recorded outputs are the benchmark's
correctness check.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")


def record(name, expected, log):
    from perfbench import measure, workloads

    workload = workloads.make(name, expected)
    probe = workloads.JobProbe()
    from perfbench.layers import Patches

    with Patches() as patches:
        probe.install(patches)
        if name == "verify":
            round_ = measure.one_round(workload, 0, probe)
            if round_.error:
                raise RuntimeError(round_.error)
            section = {"checks": round_.counters["results"]}
        else:
            seeds = {}
            for seed in workload.pool + (workload.held_out,):
                round_ = measure.one_round(workload, seed, probe)
                if round_.error:
                    raise RuntimeError("seed %d: %s" % (seed, round_.error))
                seeds[str(seed)] = round_.counters["digests"]
                log("%s seed %d: %d digests, %.1fs"
                    % (name, seed, len(seeds[str(seed)]), round_.wall))
            section = {"seeds": seeds}
    return section


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=("headline16", "storm256", "verify"))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        with open(EXPECTED) as fileobj:
            expected = json.load(fileobj)
    except FileNotFoundError:
        expected = {}
    names = args.workload or ["headline16", "storm256", "verify"]
    for name in names:
        expected.setdefault(name, {"seeds": {}, "checks": {}})
        section = record(name, expected,
                         lambda text: print(text, flush=True))
        try:  # merge: another workload may have been recorded meanwhile
            with open(EXPECTED) as fileobj:
                expected = json.load(fileobj)
        except FileNotFoundError:
            pass
        expected[name] = section
        with open(EXPECTED, "w") as fileobj:
            json.dump(expected, fileobj, indent=1, sort_keys=True)
            fileobj.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
