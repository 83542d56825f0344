"""Run applications on system configurations and collect metrics.

This is the layer every experiment and benchmark goes through: it builds
the workload trace, instantiates a fresh :class:`~repro.sim.System`, runs
it with online coherence checking, and returns the evaluation-facing
:class:`~repro.analysis.metrics.RunMetrics`.

Pass ``trace=`` to record an observability trace of the run (see
:mod:`repro.obs`): a :class:`~repro.obs.Tracer` to use directly, a
:class:`~repro.obs.TraceConfig` to build one from, or ``True`` for a
default full-fidelity tracer.  The tracer ends up on ``AppRun.trace`` and
its metrics summary in ``AppRun.stats`` alongside ``RunResult.extras``.
"""

from dataclasses import dataclass
from typing import Optional

from ..analysis.metrics import RunMetrics, consumer_histogram, metrics_from_result
from ..obs import TraceConfig, Tracer
from ..sim.system import System
from ..workloads.registry import get_workload


@dataclass
class AppRun:
    """One (application, configuration) execution and its products."""

    app: str
    metrics: RunMetrics
    consumer_hist: dict
    stats: dict
    trace: Optional[Tracer] = None
    obs: Optional[dict] = None  # RunResult.extras["obs"] when traced
    #: RunResult.extras["miss_latency"]: exact per-class latency counts
    #: (None on an AppRun rebuilt from a default sweep payload, which
    #: carries only cycles + stats).
    miss_latency: Optional[dict] = None


def _resolve_tracer(trace):
    """Normalise run_app's ``trace`` argument to a Tracer or None."""
    if trace is None or trace is False:
        return None
    if trace is True:
        return Tracer()
    if isinstance(trace, Tracer):
        return trace
    if isinstance(trace, TraceConfig):
        return Tracer(trace)
    raise TypeError("trace must be None, bool, Tracer or TraceConfig; "
                    "got %r" % (trace,))


def run_app(app, config, num_cpus=None, seed=12345, scale=1.0,
            check_coherence=True, trace=None, chaos=None):
    """Execute ``app`` on ``config`` and return an :class:`AppRun`.

    ``scale`` shrinks the workload (iterations and line counts) for quick
    runs; results at small scales are noisier but directionally faithful.
    ``chaos`` (a :class:`~repro.network.ChaosConfig`) injects network
    faults — see :mod:`repro.fuzz`.
    """
    cpus = num_cpus if num_cpus is not None else config.num_nodes
    build = get_workload(app, num_cpus=cpus, seed=seed, scale=scale).build()
    tracer = _resolve_tracer(trace)
    system = System(config, check_coherence=check_coherence, tracer=tracer,
                    chaos=chaos)
    result = system.run(build.per_cpu_ops, placements=build.placements)
    return AppRun(app=app,
                  metrics=metrics_from_result(result),
                  consumer_hist=consumer_histogram(result),
                  stats=result.stats,
                  trace=tracer,
                  obs=result.extras.get("obs"),
                  miss_latency=result.extras["miss_latency"])


def run_matrix(apps, configs, seed=12345, scale=1.0, check_coherence=True,
               engine=None):
    """Run every app on every configuration.

    ``configs`` maps a configuration name to a :class:`SystemConfig`.
    Returns ``{(app, config_name): AppRun}``.  The matrix is submitted as
    one batch through a sweep engine (see :mod:`repro.harness.sweep`);
    pass ``engine`` to parallelise or cache, the default is serial and
    uncached.
    """
    from .sweep import SweepJob, default_engine

    engine = engine if engine is not None else default_engine()
    return engine.run_many(
        {(app, name): SweepJob(app=app, config=config, seed=seed,
                               scale=scale, check_coherence=check_coherence)
         for app in apps for name, config in configs.items()})
