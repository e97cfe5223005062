"""Resilience records for the serving stack: per-query telemetry, pool knobs.

The serving regime (:mod:`repro.serve` over :mod:`repro.query.pool`) has
to survive failure modes the one-shot evaluator never sees: workers that
crash mid-CTP, hang past every deadline, leak memory across requests, or
load a corrupted snapshot.  Pooled dispatch answers every one of them
with one rule (:class:`~repro.query.parallel._PooledDispatch`): each CTP
search is a pure function of (graph, seeds, config), so a fan-out the
pool failed is torn down and run inline, and the workers are rebuilt at
the next dispatch.  This module holds the two records around that rule:

:class:`ResilienceReport`
    Per-query telemetry of what fired for that query — hang kills,
    respawns, degradation — threaded from the dispatch layer into
    :class:`~repro.query.evaluator.QueryResult` and from there into every
    :class:`~repro.serve.models.QueryResponse`, so degradation is
    *observable* even when it is survivable.  Pool-lifetime counters
    (respawns, recycled workers) are the pool's, read from
    :meth:`~repro.query.pool.WorkerPool.stats`.

:class:`PoolResilienceConfig`
    The pool's lifecycle knobs: recycling thresholds and the hang
    watchdog's budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass
class ResilienceReport:
    """What resilience machinery fired while evaluating one query.

    Attached to :class:`~repro.query.evaluator.QueryResult` (``.resilience``)
    and surfaced per-response by the query server, so a request that was
    silently *saved* — run inline after its workers crashed or hung —
    says so.
    """

    #: Hang-watchdog kills performed for this query.
    hangs: int = 0
    #: Worker pools torn down for this query (crash or hang), rebuilt at
    #: the next dispatch.
    respawns: int = 0
    #: Degradation of this query's process dispatch, if any: ``None``
    #: (the pool served it) or ``"serial"``, the inline run that replaced
    #: the pool.
    degraded_to: Optional[str] = None


@dataclass(frozen=True)
class PoolResilienceConfig:
    """Bundle of the :class:`~repro.query.pool.WorkerPool` resilience knobs.

    Kept separate from :class:`~repro.ctp.config.SearchConfig` on purpose:
    these govern the *pool's* lifecycle, not any single search, and they
    never participate in memo fingerprints.
    """

    #: Proactively recycle (tear down + respawn) the workers after this
    #: many jobs served by one executor epoch.  ``None`` disables.
    recycle_after: Optional[int] = None
    #: Recycle when any worker's resident set exceeds this many MiB
    #: (checked via ``/proc`` where available).  ``None`` disables.
    max_worker_rss_mb: Optional[float] = None
    #: How often (in dispatches) the RSS check runs; it costs a /proc read
    #: per worker, so it is sampled rather than per-submit.
    rss_check_every: int = 8
    #: Hang watchdog fallback budget (seconds) for jobs with no timeout of
    #: their own; a job *with* a timeout/deadline uses that instead.
    hang_timeout: float = 30.0
    #: Grace added on top of the per-job budgets before a fan-out is
    #: declared hung (queueing, serialization, scheduler noise).
    hang_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.recycle_after is not None and self.recycle_after < 1:
            raise ConfigError(f"recycle_after must be >= 1, got {self.recycle_after}")
        if self.max_worker_rss_mb is not None and self.max_worker_rss_mb <= 0:
            raise ConfigError(f"max_worker_rss_mb must be > 0, got {self.max_worker_rss_mb}")
        if self.rss_check_every < 1:
            raise ConfigError(f"rss_check_every must be >= 1, got {self.rss_check_every}")
        if self.hang_timeout <= 0 or self.hang_grace < 0:
            raise ConfigError("hang_timeout must be > 0 and hang_grace >= 0")
