"""Self-tests of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` agrees with ``perfbench/spec.py``.
2. Altered outputs are caught: one altered expected digest (headline16)
   and one altered state count (verify) each fail exactly one operation,
   so ``fail_rate > 0``.
3. The slowed-handler probe: a fixed busy-wait injected into one protocol
   handler, through the same outside wrapping the traced run uses, leaves
   every exact counter and digest unchanged while ``protocol.handle_s``
   and its share of the traced wall rise, and the untraced ``wall_s``
   rises by more than the benchmark's bound.

Takes about two minutes.  Exits 0 when every check passes.
"""

import copy
import json
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The injected busy-wait per call of the slowed handler, and the handler.
SLOW_HANDLER = "_on_data_shared"
SLOW_SECONDS = 100e-6


def check_benchmark_json():
    from perfbench import spec

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        bench = json.load(fileobj)
    problems = []
    want_e2e = [{key: m[key] for key in ("name", "unit", "better", "bound")}
                for m in spec.END_TO_END]
    if bench["end_to_end"] != want_e2e:
        problems.append("end_to_end differs from spec.END_TO_END")
    want_layer = [{"name": n, "unit": u, "better": b}
                  for n, u, b, _label, _moves in spec.PER_LAYER]
    if bench["per_layer"] != want_layer:
        problems.append("per_layer differs from spec.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        problems.append("workloads differ from spec.WORKLOADS")
    if bench["paths"] != ["perfbench"]:
        problems.append("paths is not ['perfbench']")
    return problems


def _rounds(workload, seed, count, patches_setup=None):
    from perfbench import layers, measure, workloads

    with layers.Patches() as patches:
        if patches_setup is not None:
            patches_setup(patches)
        probe = workloads.JobProbe()
        probe.install(patches)
        return [measure.one_round(workload, seed, probe)
                for _ in range(count)]


def check_altered_outputs(expected):
    from perfbench import workloads

    problems = []
    altered = copy.deepcopy(expected)
    seed = workloads.Headline16.default_seed
    digests = altered["headline16"]["seeds"][str(seed)]
    label = sorted(digests)[0]
    digests[label] = "0" * 64
    round_ = _rounds(workloads.make("headline16", altered), seed, 1)[0]
    if round_.failed != 1 or not round_.verdicts[label]:
        problems.append("altered headline16 digest for %s: %d failed, "
                        "expected exactly that one" % (label, round_.failed))
    altered = copy.deepcopy(expected)
    altered["verify"]["checks"]["mesi-4"][0] += 1
    round_ = _rounds(workloads.make("verify", altered), 0, 1)[0]
    if round_.failed != 1 or not round_.verdicts["mesi-4"]:
        problems.append("altered verify count: %d failed, expected exactly "
                        "mesi-4" % round_.failed)
    return problems


def _slow_handler(patches):
    from repro.protocol.hub import Hub

    def make(handler):
        def slowed(self, msg):
            end = perf_counter() + SLOW_SECONDS
            while perf_counter() < end:
                pass
            return handler(self, msg)
        return slowed

    patches.wrap_method(Hub, SLOW_HANDLER, make)


def _traced(workload, seed, slow):
    """One traced run, with the handler slowed while it runs if asked."""
    from perfbench import layers, measure

    with layers.Patches() as patches:
        if slow:
            _slow_handler(patches)
        return measure.traced_run(workload, seed, 0, lambda text: None)


def check_slowed_handler(expected):
    from perfbench import spec, workloads

    problems = []
    bound = next(m["bound"] for m in spec.END_TO_END if m["name"] == "wall_s")
    workload = workloads.make("headline16", expected)
    seed = workload.default_seed
    base = _rounds(workload, seed, 2)
    slow = _rounds(workload, seed, 2, patches_setup=_slow_handler)
    for name, rounds in (("baseline", base), ("slowed", slow)):
        if any(r.failed for r in rounds):
            problems.append("%s rounds failed an output check" % name)
    if base[0].counters != slow[0].counters:
        problems.append("slowing a handler changed the exact counters")
    base_wall = statistics.median(r.wall for r in base)
    slow_wall = statistics.median(r.wall for r in slow)
    print("  wall_s %.3f -> %.3f (+%.1f%%, bound %.0f%%)"
          % (base_wall, slow_wall, 100 * (slow_wall / base_wall - 1),
             100 * bound))
    if slow_wall <= base_wall * (1 + bound):
        problems.append("wall_s did not rise beyond the bound")

    traced_base = _traced(workload, seed, slow=False)
    traced_slow = _traced(workload, seed, slow=True)
    for name, result in (("baseline", traced_base),
                         ("slowed", traced_slow)):
        if not result["correct"]:
            problems.append("%s traced run failed: %s"
                            % (name, result["reasons"][:3]))
    counts = {name for name, unit, _b, _l, _m in spec.PER_LAYER
              if unit != "s" and not name.startswith("trace.")}
    changed = sorted(name for name in counts
                     if traced_base["metrics"][name]
                     != traced_slow["metrics"][name])
    if changed:
        problems.append("exact per-layer counters moved: %s"
                        % ", ".join(changed))

    def handle(result):
        metrics = result["metrics"]
        total = sum(metrics[name][0]
                    for name in spec.LAYER_TIME_METRIC.values())
        return metrics["protocol.handle_s"][0], (
            metrics["protocol.handle_s"][0] / total)

    (base_s, base_share), (slow_s, slow_share) = (handle(traced_base),
                                                  handle(traced_slow))
    print("  protocol.handle_s %.3f -> %.3f, share %.1f%% -> %.1f%%"
          % (base_s, slow_s, 100 * base_share, 100 * slow_share))
    if not (slow_s > base_s and slow_share > base_share):
        problems.append("protocol.handle_s or its share did not rise")
    return problems


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    with open(os.path.join(HERE, "expected.json")) as fileobj:
        expected = json.load(fileobj)
    failed = False
    for name, check in (
            ("BENCHMARK.json matches spec.py", check_benchmark_json),
            ("altered outputs fail", lambda: check_altered_outputs(expected)),
            ("slowed-handler probe", lambda: check_slowed_handler(expected))):
        print("%s ..." % name, flush=True)
        problems = check()
        for problem in problems:
            print("  FAIL: %s" % problem)
        print("  %s" % ("FAIL" if problems else "ok"), flush=True)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
