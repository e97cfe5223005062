"""Resilience primitives for the serving stack: retry, breaker, telemetry.

The serving regime (:mod:`repro.serve` over :mod:`repro.query.pool`) has
to survive failure modes the one-shot evaluator never sees: workers that
crash mid-CTP, hang past every deadline, leak memory across requests, or
load a corrupted snapshot.  Each of those needs a *policy*, not an ad-hoc
``except`` clause — this module holds the three policy objects the
dispatch layer composes:

:class:`RetryPolicy`
    Bounded, jittered-exponential-backoff retries, applied **only** to
    idempotent infrastructure failures (a crashed or hung worker — the
    CTP evaluation itself is a pure function of (graph, seeds, config)),
    never to deterministic user-code errors (a raising scorer would raise
    again), and never when the backoff would spend deadline budget the
    query no longer has.

:class:`CircuitBreaker`
    The classic closed → open → half-open machine guarding pooled
    dispatch.  Repeated pool failures trip it open: while open, dispatch
    degrades straight to inline (cheap, always correct) instead of
    paying a doomed spawn-fail-respawn cycle per query.  After a cooldown
    it admits a bounded number of half-open probes; one success closes it
    again, a probe failure re-opens it for another cooldown.

:class:`ResilienceReport`
    Per-query telemetry of what machinery actually fired for that query
    — retries, hang kills, respawns, breaker skips, degradation —
    threaded from the dispatch layer into
    :class:`~repro.query.evaluator.QueryResult` and from there into every
    :class:`~repro.serve.models.QueryResponse`, so degradation is
    *observable* even when it is survivable.  Pool-lifetime state (the
    breaker's state, recycled workers) is the pool's, read from
    :meth:`~repro.query.pool.WorkerPool.stats`.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError, WorkerHangError

#: Breaker states (:attr:`CircuitBreaker.state`).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Error classes a :class:`RetryPolicy` treats as retryable by default:
#: infrastructure failures of the worker transport, where re-running the
#: (idempotent) evaluation on fresh workers can genuinely succeed.  A
#: deterministic evaluation error (bad config, raising scorer) is absent
#: on purpose — it would fail identically on every attempt.
DEFAULT_RETRYABLE: Tuple[type, ...] = (BrokenProcessPool, WorkerHangError, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """Typed retry discipline for pooled CTP dispatch.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (``2`` = the historical
        one-respawn-one-retry behaviour).
    base_backoff / multiplier / max_backoff:
        Exponential backoff schedule in seconds: attempt ``k`` (1-based)
        waits ``min(base_backoff * multiplier**(k-1), max_backoff)``
        before retrying, plus jitter.
    jitter:
        Fraction of the backoff randomized uniformly (``0.5`` = the wait
        lands anywhere in 50-150% of the schedule value); decorrelates
        retry storms when many queries hit the same broken pool.
    seed:
        Seed for the jitter RNG — fault-injection tests pin it so chaos
        runs reproduce byte-for-byte.
    retryable:
        Exception classes worth retrying (see :data:`DEFAULT_RETRYABLE`).
    """

    max_attempts: int = 2
    base_backoff: float = 0.02
    multiplier: float = 2.0
    max_backoff: float = 0.5
    jitter: float = 0.5
    seed: Optional[int] = None
    retryable: Tuple[type, ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ConfigError("RetryPolicy backoff values must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"RetryPolicy.jitter must be in [0, 1], got {self.jitter}")

    def rng(self) -> random.Random:
        """A fresh jitter RNG (seeded when the policy is)."""
        return random.Random(self.seed)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def backoff_seconds(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Jittered wait before retry number ``attempt`` (1-based)."""
        base = min(self.base_backoff * (self.multiplier ** max(0, attempt - 1)), self.max_backoff)
        if base <= 0.0:
            return 0.0
        if self.jitter <= 0.0:
            return base
        rng = rng if rng is not None else random
        return base * (1.0 - self.jitter + 2.0 * self.jitter * rng.random())

    def should_retry(
        self,
        attempt: int,
        error: BaseException,
        elapsed: float = 0.0,
        budget: Optional[float] = None,
        backoff: Optional[float] = None,
    ) -> bool:
        """Whether attempt ``attempt`` (1-based, just failed) warrants another.

        ``budget`` is the smallest per-CTP timeout of the dispatched jobs —
        under a query deadline those timeouts were already capped to the
        remaining wall budget at job-build time, so it is an honest upper
        bound on what the query can still afford.  ``backoff`` is the wait
        the caller will sleep before the retry (:meth:`backoff_seconds`,
        drawn once): a retry whose backoff would land past the budget is
        pointless (the rerun would be truncated to nothing) and is refused.
        A ``budget`` without its ``backoff`` is a :class:`TypeError`: the
        check would approve a wait it never saw.
        """
        if budget is not None and backoff is None:
            raise TypeError("RetryPolicy.should_retry: a budget needs the backoff it must cover")
        if attempt >= self.max_attempts or not self.is_retryable(error):
            return False
        if budget is not None and elapsed + backoff >= budget:
            return False
        return True


class CircuitBreaker:
    """Closed → open → half-open failure gate for pooled dispatch.

    Thread-safe; shared by every dispatch that runs through one
    :class:`~repro.query.pool.WorkerPool`.  ``clock`` is injectable so
    tests drive the cooldown without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        half_open_probes: int = 1,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ConfigError(
                f"CircuitBreaker.failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ConfigError(f"CircuitBreaker.cooldown must be >= 0, got {cooldown}")
        if half_open_probes < 1:
            raise ConfigError(
                f"CircuitBreaker.half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probes_left = 0
        #: Lifetime count of closed→open transitions (telemetry).
        self.trips = 0

    # ------------------------------------------------------------------
    def _tick_locked(self) -> None:
        """Open → half-open once the cooldown elapsed.  Caller holds the lock."""
        if self._state == BREAKER_OPEN and self._opened_at is not None:
            if self._clock() - self._opened_at >= self.cooldown:
                self._state = BREAKER_HALF_OPEN
                self._probes_left = self.half_open_probes

    @property
    def state(self) -> str:
        with self._lock:
            self._tick_locked()
            return self._state

    def allow(self) -> bool:
        """Whether a pooled dispatch may run right now.

        Closed: always.  Open: no, until the cooldown elapses.  Half-open:
        admits up to ``half_open_probes`` probe dispatches, whose outcomes
        (:meth:`record_success`/:meth:`record_failure`) decide the next
        state; further requests stay degraded until a probe settles.  An
        admitted dispatch owes the breaker one of those two or
        :meth:`release`.
        """
        with self._lock:
            self._tick_locked()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_HALF_OPEN and self._probes_left > 0:
                self._probes_left -= 1
                return True
            return False

    def release(self) -> None:
        """Hand an admitted probe back unspent.

        For a dispatch :meth:`allow` admitted that ended without a verdict
        on the pool (stale view, unpicklable workload, an evaluation
        error): only open → half-open re-arms probes, so a probe spent on
        such a dispatch would leave the breaker refusing forever.
        """
        with self._lock:
            if self._state == BREAKER_HALF_OPEN and self._probes_left < self.half_open_probes:
                self._probes_left += 1

    def record_success(self) -> None:
        with self._lock:
            self._state = BREAKER_CLOSED
            self._failures = 0
            self._opened_at = None
            self._probes_left = 0

    def record_failure(self) -> None:
        with self._lock:
            self._tick_locked()
            if self._state == BREAKER_HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self._probes_left = 0
                self.trips += 1
                return
            self._failures += 1
            if self._state == BREAKER_CLOSED and self._failures >= self.failure_threshold:
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self.trips += 1

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, failures={self._failures}/"
            f"{self.failure_threshold}, trips={self.trips})"
        )


@dataclass
class ResilienceReport:
    """What resilience machinery fired while evaluating one query.

    Attached to :class:`~repro.query.evaluator.QueryResult` (``.resilience``)
    and surfaced per-response by the query server, so a request that was
    silently *saved* — retried after a crash, rerouted past an open
    breaker, served by freshly recycled workers — says so.
    """

    #: Pooled fan-outs re-run after a retryable failure (crash/hang).
    retries: int = 0
    #: Hang-watchdog kills performed for this query.
    hangs: int = 0
    #: Worker respawns performed for this query (crash or hang recovery).
    respawns: int = 0
    #: Dispatches refused by an open breaker (degraded without trying).
    breaker_skips: int = 0
    #: Terminal degradation of this query's process dispatch, if any:
    #: ``None`` (pool served it) or ``"serial"``, the inline run that
    #: replaced the pool once it was given up on.
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
