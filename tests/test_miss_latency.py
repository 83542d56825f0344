"""Exact, always-on miss-latency counts.

Every ``System`` keeps ``{path class: {cycles: count}}`` for the misses
it retires and returns it as ``RunResult.extras["miss_latency"]``; the
scale and arena reports take their p50/p95 columns from it without a
tracer.  These tests pin that the record does not perturb the run, that
it agrees with the tracer's histograms when both are on, that it
survives the on-disk sweep cache, and the exact quantiles of one cell.
"""

from dataclasses import replace

import pytest

from repro.common import params
from repro.fuzz.runner import build_workload
from repro.fuzz.scenarios import FuzzScenario
from repro.harness import run_app
from repro.harness.arena import arena_engine, arena_runner, run_arena
from repro.harness.scale import run_scale, scale_engine, scale_runner
from repro.harness.sweep import SweepJob
from repro.obs import TraceConfig, Tracer
from repro.sim import System


def _storm_job(num_nodes, fmt="full", seed=0):
    scenario = FuzzScenario.storm(seed, num_nodes=num_nodes,
                                  directory_format=fmt)
    return SweepJob(app="storm", config=scenario.config, seed=seed)


def _traced_storm(job):
    """The scale cell of ``job`` run exactly as ``scale_runner`` runs it,
    plus a tracer."""
    scenario = replace(FuzzScenario.storm(job.seed,
                                          num_nodes=job.config.num_nodes,
                                          scale=job.scale),
                       config=job.config)
    build = build_workload(scenario)
    system = System(job.config, check_coherence=job.check_coherence,
                    tracer=Tracer(TraceConfig(capture_messages=False)))
    return system.run(build.per_cpu_ops, placements=build.placements,
                      max_cycles=scenario.max_cycles,
                      max_events=scenario.max_events)


def _assert_histograms_match(obs, exact):
    """Per path class, the traced histogram saw the same samples."""
    assert set(obs["miss_latency"]) == set(exact)
    for path, pairs in exact.items():
        hist = obs["miss_latency"][path]
        assert hist["count"] == sum(count for _lat, count in pairs), path
        assert hist["sum"] == sum(lat * count for lat, count in pairs), path
        if pairs:
            assert hist["min"] == pairs[0][0]
            assert hist["max"] == pairs[-1][0]


class TestNonInterference:
    def test_storm_cell_traced_and_untraced_agree(self):
        job = _storm_job(64, "limited:2")
        plain = scale_runner(job)
        traced = _traced_storm(job)
        assert traced.cycles == plain["cycles"]
        assert traced.stats == plain["stats"]
        assert traced.extras["miss_latency"] == plain["miss_latency"]
        _assert_histograms_match(traced.extras["obs"],
                                 plain["miss_latency"])

    def test_arena_cell_traced_and_untraced_agree(self):
        config = replace(params.small(), protocol_name="dragon")
        job = SweepJob(app="em3d", config=config, seed=5, scale=0.05)
        plain = arena_runner(job)
        traced = run_app("em3d", config, seed=5, scale=0.05,
                         trace=Tracer(TraceConfig(capture_messages=False)))
        assert traced.metrics.cycles == plain["cycles"]
        assert traced.stats == plain["stats"]
        assert traced.miss_latency == plain["miss_latency"]
        _assert_histograms_match(traced.obs, plain["miss_latency"])

    def test_counts_stay_out_of_stats(self):
        """``stats`` + ``cycles`` are what run digests and goldens hash."""
        payload = scale_runner(_storm_job(16))
        assert not any("latency" in name for name in payload["stats"])
        assert sum(count for pairs in payload["miss_latency"].values()
                   for _lat, count in pairs) == (
            payload["stats"]["miss.local"]
            + payload["stats"]["miss.remote_2hop"]
            + payload["stats"]["miss.remote_3hop"])


class TestCachedRowsReplayExactly:
    """Integer latency keys must not turn into strings (and sort
    lexically) on their way through the JSON cache."""

    def test_scale_cell(self, tmp_path):
        def rows():
            engine = scale_engine(jobs=1, cache=True,
                                  cache_dir=str(tmp_path))
            report = run_scale(nodes=(16,), formats=("limited:2",),
                               engine=engine)
            return report.rows(), engine.last_report

        fresh, first = rows()
        cached, second = rows()
        assert first.executed == 1
        assert second.cached == 1 and second.executed == 0
        assert cached == fresh
        assert fresh[0]["miss_p50"] is not None

    def test_arena_cell(self, tmp_path):
        def rows():
            engine = arena_engine(jobs=1, cache=True,
                                  cache_dir=str(tmp_path))
            report = run_arena(apps=("em3d",), protocols=("adaptive",),
                               seed=5, scale=0.05, engine=engine)
            return report.to_json()["rows"], engine.last_report

        fresh, first = rows()
        cached, second = rows()
        assert first.executed == 1
        assert second.cached == 1 and second.executed == 0
        assert cached == fresh
        assert fresh["em3d"][0]["miss_p95"] is not None


@pytest.mark.parametrize("fmt", ["full", "limited:2"])
def test_pinned_quantiles_of_a_16_node_storm(fmt):
    """Exact nearest-rank values, not power-of-two bucket edges."""
    row = run_scale(nodes=(16,), formats=(fmt,)).rows()[0]
    assert (row["miss_p50"], row["miss_p95"]) == (308, 622)
