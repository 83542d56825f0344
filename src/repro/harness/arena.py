"""The protocol arena: race the adaptive protocol against its baselines.

The paper's claim is comparative — adaptive delegation/update beats plain
write-invalidate on producer-consumer sharing — so the arena runs the same
workloads over every registered protocol (see
:mod:`repro.protocol.arena`) and renders the comparison: traffic bytes,
hop-class miss breakdown, and miss-latency p50/p95 per workload per
protocol.

Every (workload, protocol) cell is one :class:`~repro.harness.sweep.
SweepJob` submitted through a :class:`~repro.harness.sweep.SweepEngine`,
so arena sweeps parallelise and cache exactly like every other
experiment; ``protocol_name`` rides in the config and therefore in the
cache key.  All cells share one *base* config — each protocol then
normalises it onto its own feature set (``wi`` strips delegation, ``mesi``
also drops the RAC...), which is the point: equal hardware budget, the
protocol is the only variable.
"""

from dataclasses import replace

from ..analysis.tables import render_table
from ..common import params
from ..common import stats as S
from ..protocol.arena import ARENA_PROTOCOLS, resolve_protocol
from .runner import run_app
from .sweep import SweepJob, _payload_from_run

#: Default arena workloads: the two apps with the strongest
#: producer-consumer signature (Table 2), so the default report actually
#: shows the protocols apart.
DEFAULT_APPS = ("em3d", "ocean")


def arena_runner(job):
    """Worker-side runner for arena cells (module-level so it pickles by
    reference).  The normal sweep payload plus the exact miss-latency
    counts the report's p50/p95 columns come from."""
    run = run_app(job.app, job.config, num_cpus=job.num_cpus, seed=job.seed,
                  scale=job.scale, check_coherence=job.check_coherence,
                  chaos=job.chaos)
    payload = dict(_payload_from_run(run))
    payload["miss_latency"] = run.miss_latency
    return payload


def latency_quantiles(payload):
    """Exact (p50, p95) miss latency of a cell payload, merged across the
    hop classes; (None, None) when the run completed no miss."""
    pairs = [pair for counts in payload["miss_latency"].values()
             for pair in counts]
    return S.quantile(pairs, 0.50), S.quantile(pairs, 0.95)


class ArenaReport:
    """Results of one arena sweep: ``cells[(app, protocol)] -> payload``."""

    def __init__(self, apps, protocols, cells, base_name, seed, scale):
        self.apps = list(apps)
        self.protocols = list(protocols)
        self.cells = cells
        self.base_name = base_name
        self.seed = seed
        self.scale = scale

    def row(self, app, protocol):
        """The report row for one cell, as a plain dict."""
        payload = self.cells[(app, protocol)]
        stats = payload["stats"]
        p50, p95 = latency_quantiles(payload)
        return {
            "protocol": protocol,
            "cycles": payload["cycles"],
            "traffic_bytes": stats.get(S.MSG_BYTES, 0),
            "miss_local": stats.get(S.MISS_LOCAL, 0),
            "miss_2hop": stats.get(S.MISS_2HOP, 0),
            "miss_3hop": stats.get(S.MISS_3HOP, 0),
            "updates_sent": stats.get(S.UPDATES_SENT, 0),
            "miss_p50": p50,
            "miss_p95": p95,
        }

    def render_text(self):
        """The full comparison: one table per workload."""
        headers = ["protocol", "cycles", "traffic B", "miss local",
                   "2hop", "3hop", "updates", "lat p50", "lat p95"]
        blocks = ["protocol arena  (base config %s, seed %d, scale %g)"
                  % (self.base_name, self.seed, self.scale)]
        for app in self.apps:
            rows = []
            for protocol in self.protocols:
                rec = self.row(app, protocol)
                rows.append([rec["protocol"], rec["cycles"],
                             rec["traffic_bytes"], rec["miss_local"],
                             rec["miss_2hop"], rec["miss_3hop"],
                             rec["updates_sent"],
                             rec["miss_p50"] if rec["miss_p50"] is not None
                             else "-",
                             rec["miss_p95"] if rec["miss_p95"] is not None
                             else "-"])
            blocks.append(render_table(headers, rows, title="[%s]" % app))
        return "\n\n".join(blocks)

    def to_json(self):
        """JSON-safe document of every cell's report row."""
        return {
            "base_config": self.base_name,
            "seed": self.seed,
            "scale": self.scale,
            "apps": self.apps,
            "protocols": self.protocols,
            "rows": {app: [self.row(app, protocol)
                           for protocol in self.protocols]
                     for app in self.apps},
        }


def run_arena(apps=DEFAULT_APPS, protocols=ARENA_PROTOCOLS, base=None,
              base_name="small", seed=12345, scale=0.5, engine=None):
    """Sweep ``apps`` x ``protocols`` and return an :class:`ArenaReport`.

    ``base`` is the shared base :class:`SystemConfig` (default: the named
    preset ``base_name`` from :mod:`repro.common.params`); every protocol
    runs ``replace(base, protocol_name=...)`` and normalises it itself at
    System construction.  ``engine`` must have been built with
    ``runner=arena_runner`` (CLI and :func:`arena_engine` do); the default
    is serial and uncached.
    """
    if base is None:
        base = getattr(params, base_name)()
    for name in protocols:
        resolve_protocol(name)  # fail fast on typos, before any sim runs
    if engine is None:
        engine = arena_engine()
    jobs = {
        (app, protocol): SweepJob(
            app=app, config=replace(base, protocol_name=protocol),
            seed=seed, scale=scale)
        for app in apps for protocol in protocols
    }
    cells = engine.run_many(jobs)
    return ArenaReport(apps=apps, protocols=protocols, cells=cells,
                       base_name=base_name, seed=seed, scale=scale)


def arena_engine(jobs=1, cache=False, **kwargs):
    """A :class:`SweepEngine` wired for arena payloads (the engine's
    default decoder is the identity when a custom runner is set)."""
    from .sweep import SweepEngine

    return SweepEngine(jobs=jobs, cache=cache, runner=arena_runner,
                       **kwargs)


__all__ = ["ArenaReport", "DEFAULT_APPS", "arena_engine", "arena_runner",
           "latency_quantiles", "run_arena"]
