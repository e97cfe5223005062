"""Parallel CTP dispatch and the batch query front-end.

Section 5 of the paper evaluates each CONNECT clause as an independent
connection-search invocation; step (B) of the evaluator (Section 3) is
therefore embarrassingly parallel *across CTPs* once the query-scoped
state is safe to share — which ``SearchContext(thread_safe=True)``
provides (sharded edge-set pool, locked result caches).  This module is
the dispatch layer on top:

:func:`run_ctp_jobs`
    Evaluate a query's CTP jobs serially (``parallelism=1`` — byte-for-
    byte the historical evaluator loop), on a ``ThreadPoolExecutor``
    (``parallelism_mode="thread"``), or on a ``ProcessPoolExecutor``
    (``parallelism_mode="process"``).  Every pooled path preserves the
    serial path's observable semantics:

    * **rows** — each engine run is deterministic given (graph, seeds,
      config) and never reads another run's private state, so results are
      bit-identical to serial dispatch regardless of worker count or
      completion order;
    * **cross-CTP memo** — duplicate CTPs (same memo key) are grouped and
      in-flight-deduplicated: one *leader* searches, followers share its
      result exactly when the serial path would have served a memo hit
      (complete, untruncated) and re-run otherwise; memo filing happens in
      CTP order after the batch so the cache's LRU state is deterministic;
    * **stats** — per-CTP ``SearchStats`` stay attached to their reports
      and merge in CTP order (:meth:`SearchStats.merged`), never
      completion order.  Only the shared-pool ``pool_*`` deltas become
      approximate under concurrency (overlapping attribution).

:func:`evaluate_queries`
    The batch front-end: run many queries against **one** shared context,
    so repeated CONNECTs across queries become cross-query memo hits and
    the interning pool amortizes across the whole batch — the multi-user
    serving shape (many queries, one graph) rather than the single-query
    shape.

What a thread pool buys under CPython's GIL: deadline-bounded CTPs
(per-CTP ``TIMEOUT``) overlap their *wall-clock* budgets — m concurrent
timeouts cost ~T instead of m*T — and cache-miss stalls interleave.
CPU-bound complete searches only gain real overlap on multi-core
free-threaded builds; ``python -m repro.bench parallel`` measures both
regimes honestly.

The **process pool** (``SearchConfig(parallelism_mode="process")``) is the
CPU-bound answer under the GIL: workers are separate interpreters, each
initialized *once* with the path of an mmap-shared CSR snapshot
(:func:`repro.graph.snapshot.ensure_snapshot` — written on demand, reused
when the graph already has one), so N workers share one physical copy of
the adjacency columns and pay the graph load once per worker, not per
job.  Each worker evaluates its CTPs against a private
:class:`SearchContext`; the parent keeps serving and filing its own
cross-CTP memo in CTP order, so rows *and* memo LRU state stay identical
to serial dispatch.  When the jobs cannot cross a process boundary (an
unpicklable score callable, graph properties pickle refuses, a broken
pool), dispatch degrades to the thread pool — or serial — rather than
failing the query; ``python -m repro.bench process-parallel`` measures
what each mode buys.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.registry import get_algorithm
from repro.ctp.results import CTPResultSet
from repro.ctp.stats import SearchStats
from repro.errors import PoolClosedError, ReproError, StaleViewError, WorkerHangError
from repro.graph.backend import resolve_backend
from repro.graph.graph import Graph
from repro.graph.snapshot import ensure_snapshot
from repro.query.costmodel import CTPCostEstimator, QuerySchedule, choose_mode
from repro.query.resilience import ResilienceReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evaluator imports us)
    from repro.query.evaluator import QueryResult
    from repro.query.pool import WorkerPool


@dataclass
class CTPJob:
    """One CTP evaluation of a query, ready to dispatch.

    ``memo_key`` is the evaluator's cross-CTP memo key, or ``None`` when no
    context is active (then the job is always searched).  ``index`` is the
    CTP's position in the query — outcomes are returned in this order.
    """

    index: int
    seed_sets: List[Any]
    config: SearchConfig
    memo_key: Optional[Hashable] = None


@dataclass
class CTPOutcome:
    """What one job produced: the result set, memo provenance, timing.

    ``mode`` records what actually produced the result: ``"serial"``,
    ``"thread"``, or ``"process"`` for an executed search, ``"memo"`` when
    the result was served from the cross-CTP memo (or shared from an
    in-flight duplicate) and no search ran for this job at all.  It can
    therefore differ from the requested ``parallelism_mode`` — process
    dispatch degrades to thread/serial for unpicklable jobs or a broken
    pool: the fallback is silent by design, but it must stay *observable*
    so a ~0.9x thread run never masquerades as multi-core.  A *pooled*
    dispatch that exhausted its retries (or was refused by an open
    circuit breaker) stamps the hop explicitly — ``"process->thread"`` /
    ``"process->serial"`` — distinguishing forced degradation from a
    dispatch that never wanted process mode at all.
    """

    result_set: CTPResultSet
    cache_hit: bool
    seconds: float
    mode: str = "serial"


def effective_parallelism(
    parallelism: int,
    num_jobs: int,
    context: Optional[SearchContext],
    mode: str = "thread",
) -> int:
    """Worker count a dispatch will actually use.

    Collapses to serial when there is at most one job, when the caller
    asked for one worker, or when — under *thread* mode — an explicit
    context is not thread-safe: sharing unlocked state across workers is
    never worth a corrupted pool, and the serial path is always correct.
    Process mode never shares the context with workers (only the parent
    thread touches it, for memo serve/file), so a non-thread-safe context
    does not downgrade it.
    """
    if num_jobs <= 1 or parallelism <= 1:
        return 1
    if mode == "thread" and context is not None and not context.thread_safe:
        return 1
    return min(parallelism, num_jobs)


def _replayable(result_set: CTPResultSet) -> bool:
    """Serial memo rule: only complete, untruncated runs are safe to share."""
    return result_set.complete and not result_set.timed_out


def _resolve_auto_mode(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    parallelism: int,
    pool: Optional["WorkerPool"],
    schedule: Optional[QuerySchedule],
) -> Tuple[str, int]:
    """Resolve ``mode="auto"`` for a direct :func:`run_ctp_jobs` caller.

    The evaluator resolves auto itself (it has the seed-derivation sizes
    and the pool in hand); a direct caller gets the same decision from
    the jobs' own seed sets.  Returns ``(mode, parallelism)`` — a
    ``serial`` verdict is expressed as ``("thread", 1)`` so the historical
    collapse-to-serial rules apply unchanged.
    """
    if schedule is not None and schedule.estimates:
        total = sum(schedule.estimates.values())
    else:
        estimator = CTPCostEstimator()
        total = sum(
            estimator.estimate_ctp(
                graph,
                algorithm,
                [None if seeds is WILDCARD else len(seeds) for seeds in job.seed_sets],
                job.config,
            )
            for job in jobs
        )
    resolved = choose_mode(total, len(jobs), parallelism, pool)
    if schedule is not None:
        schedule.report.mode_requested = "auto"
        schedule.report.mode_selected = resolved
    if resolved == "serial":
        return "thread", 1
    return resolved, parallelism


def run_ctp_jobs(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    parallelism: int = 1,
    mode: str = "thread",
    pool: Optional["WorkerPool"] = None,
    report: Optional[ResilienceReport] = None,
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    """Evaluate ``jobs`` and return one :class:`CTPOutcome` per job, in order.

    ``pool`` (a :class:`~repro.query.pool.WorkerPool`) makes ``"process"``
    dispatch *persistent*: jobs are submitted to the pool's long-lived
    workers instead of an executor built and torn down per call.  An
    injected pool is used for every process-mode dispatch — even a single
    job, even ``parallelism == 1`` (a warm worker beats any spin-up, and
    on a single-core host the serving layer's whole win *is* the
    eliminated spin-up); without a pool the historical collapse-to-serial
    rules apply unchanged.  A closed pool, or one bound to a different
    graph, is ignored rather than trusted.

    Pooled dispatch is guarded by the pool's circuit breaker: while it is
    open (repeated pool failures), dispatch degrades *directly* to the
    thread/serial chain — stamping the hop in each outcome's ``mode`` —
    instead of paying a doomed spawn/fail cycle per query; half-open
    probe dispatches are admitted per the breaker's policy and their
    outcome closes or re-opens it.  ``report`` (a
    :class:`~repro.query.resilience.ResilienceReport`) collects what
    resilience machinery fired, for the serving layer's telemetry.

    ``schedule`` (a :class:`~repro.query.costmodel.QuerySchedule`) turns
    on the cost-model decisions: longest-first leader submission in the
    fan-out and execution-time deadline-budget grants (the job configs
    carry build budgets; the ledger may re-grant upward, never downward).
    ``mode="auto"`` is resolved here for direct callers
    (:func:`_resolve_auto_mode`) — the evaluator resolves it before
    calling.
    """
    if mode == "auto":
        mode, parallelism = _resolve_auto_mode(
            graph, algorithm, jobs, parallelism, pool, schedule
        )
    if (
        pool is not None
        and mode == "process"
        and jobs
        and not pool.closed
        and pool.matches(graph)
    ):
        if not pool.breaker.allow():
            if report is not None:
                report.breaker_skips += 1
                report.breaker_state = pool.breaker.state
                report.recycled_workers = pool.recycles
            return _degraded_from_process(
                graph, algorithm, jobs, context, parallelism, report, schedule
            )
        return _run_process_pooled(
            graph, algorithm, jobs, context, pool, parallelism, report, schedule
        )
    workers = effective_parallelism(parallelism, len(jobs), context, mode)
    if workers <= 1:
        return _run_serial(graph, algorithm, jobs, context, schedule)
    if mode == "process":
        return _run_process(graph, algorithm, jobs, context, workers, schedule)
    return _run_parallel(graph, algorithm, jobs, context, workers, schedule)


def _run_serial(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    """The historical evaluator loop: memo get -> search -> memo put, per CTP.

    Serial dispatch keeps CTP order even under a schedule (it *is* the
    reference ordering), but deadline-budget grants still apply: a fast
    early CTP's unspent budget flows to the later ones instead of being
    frozen at job-build time — the big serial tail-latency win ``python
    -m repro.bench schedule`` measures.
    """
    algo = get_algorithm(algorithm)
    outcomes: List[CTPOutcome] = []
    for job in jobs:
        started = time.perf_counter()
        result_set = None
        cache_hit = False
        if context is not None and job.memo_key is not None:
            result_set = context.ctp_cache.get(job.memo_key)
            cache_hit = result_set is not None
        if result_set is None:
            config = job.config if schedule is None else schedule.config_for_run(job)
            result_set = algo.run(graph, job.seed_sets, config, context=context)
            # Only complete, untruncated evaluations are safe to replay for
            # a later CTP: a timeout cut is wall-clock-dependent.
            if context is not None and job.memo_key is not None and _replayable(result_set):
                context.ctp_cache.put(job.memo_key, result_set)
        if schedule is not None:
            schedule.settle(job.index)
        outcomes.append(
            CTPOutcome(
                result_set,
                cache_hit,
                time.perf_counter() - started,
                mode="memo" if cache_hit else "serial",
            )
        )
    return outcomes


def _fan_out(
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    pool: Any,
    submit_one: Any,
    result_timeout: Optional[float] = None,
    schedule: Optional[QuerySchedule] = None,
) -> Tuple[List[Optional[CTPOutcome]], List[int]]:
    """Phases 1-2 of a pooled dispatch, executor-agnostic.

    ``submit_one(pool, job)`` must return a future resolving to
    ``(result_set, seconds)``; the thread path closes over the shared
    context, the process path ships the job to a worker interpreter.

    Phase 1 serves memo hits from earlier queries/batches in CTP order;
    phase 2 groups duplicates by memo key (in-flight dedup: one *leader*
    searches per distinct key), fans the leaders out, and settles
    followers.  Leaders settle as they finish (not in submission order): a
    non-replayable leader's duplicates re-submit immediately, so the rerun
    overlaps still-running leaders instead of queueing behind the slowest
    one.  Outcomes are written by CTP index, so the completion order never
    shows in the results.

    ``result_timeout`` is the hang watchdog (process-pool dispatch only):
    a wall-clock budget for the *whole* fan-out, derived by the caller
    from the jobs' own CTP timeouts.  Blowing it raises
    :class:`~repro.errors.WorkerHangError` — a worker that cannot even
    return a ``timed_out`` partial result inside its own budget plus
    grace is wedged, and waiting longer would hold the dispatch forever.

    ``schedule`` orders the leader submissions **longest-first** by the
    cost model's estimates (ties broken by CTP index, so the order is
    deterministic): with fewer workers than leaders, starting the
    stragglers first shrinks the makespan.  Representation-only — memo
    filing stays in CTP order (phase 3) and outcomes are written by CTP
    index, so rows and cache LRU state are bit-identical to serial
    whatever order the leaders ran in.
    """
    outcomes: List[Optional[CTPOutcome]] = [None] * len(jobs)
    pending: List[CTPJob] = []
    for job in jobs:
        if context is not None and job.memo_key is not None:
            cached = context.ctp_cache.get(job.memo_key)
            if cached is not None:
                outcomes[job.index] = CTPOutcome(cached, True, 0.0)
                if schedule is not None:
                    schedule.settle(job.index)
                continue
        pending.append(job)

    groups: Dict[Hashable, List[CTPJob]] = {}
    for job in pending:
        key = job.memo_key if job.memo_key is not None else ("__unkeyed__", job.index)
        groups.setdefault(key, []).append(job)

    ordered_groups: List[List[CTPJob]] = list(groups.values())
    if schedule is not None:
        ordered_groups = schedule.ordered(ordered_groups, lambda group: group[0].index)
        schedule.record_submits([group[0].index for group in ordered_groups])

    watchdog_deadline = (
        time.monotonic() + result_timeout if result_timeout is not None else None
    )

    def remaining() -> Optional[float]:
        if watchdog_deadline is None:
            return None
        return max(1e-3, watchdog_deadline - time.monotonic())

    def settle(index: int) -> None:
        if schedule is not None:
            schedule.settle(index)

    followers: List[int] = []
    future_to_group = {submit_one(pool, group[0]): group for group in ordered_groups}
    rerun_futures: List[Tuple[CTPJob, Any]] = []
    try:
        for future in as_completed(future_to_group, timeout=remaining()):
            group = future_to_group[future]
            result_set, seconds = future.result()
            leader = group[0]
            outcomes[leader.index] = CTPOutcome(result_set, False, seconds)
            settle(leader.index)
            if _replayable(result_set):
                # Exactly the runs the serial path would serve as memo hits.
                for follower in group[1:]:
                    outcomes[follower.index] = CTPOutcome(result_set, True, 0.0)
                    followers.append(follower.index)
                    settle(follower.index)
            else:
                rerun_futures.extend((job, submit_one(pool, job)) for job in group[1:])
        for job, future in rerun_futures:
            result_set, seconds = future.result(timeout=remaining())
            outcomes[job.index] = CTPOutcome(result_set, False, seconds)
            settle(job.index)
    except TimeoutError as error:
        raise WorkerHangError(
            f"pooled fan-out of {len(pending)} CTP job(s) exceeded its "
            f"{result_timeout:.3f}s hang watchdog"
        ) from error
    return outcomes, followers


def _replay_memo(
    jobs: Sequence[CTPJob],
    outcomes: List[Optional[CTPOutcome]],
    followers: List[int],
    context: Optional[SearchContext],
) -> None:
    """Phase 3 — replay the serial path's cache traffic in CTP order.

    Leaders file their (replayable) result sets, followers register the
    hit.  Running this after the fan-out keeps the memo's LRU order — and
    therefore its eviction choices — independent of worker scheduling.
    """
    if context is None:
        return
    follower_set = set(followers)
    for job in jobs:
        outcome = outcomes[job.index]
        if job.memo_key is None or outcome is None:
            continue
        if job.index in follower_set:
            refreshed = context.ctp_cache.get(job.memo_key)
            if refreshed is not None:
                outcome.result_set = refreshed
        elif not outcome.cache_hit and _replayable(outcome.result_set):
            context.ctp_cache.put(job.memo_key, outcome.result_set)


def _run_parallel(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    workers: int,
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    # Resolve the backend ONCE before fanning out: Graph.freeze() is
    # memoized but not atomic, so two workers racing the first freeze
    # would hand the context two distinct (equivalent) snapshots and the
    # second adoption would be spuriously refused.  Engines re-resolving
    # the pre-resolved graph is a no-op.
    graph = resolve_backend(graph, jobs[0].config.backend)
    algo = get_algorithm(algorithm)

    def run_one(job: CTPJob) -> Tuple[CTPResultSet, float]:
        # The deadline-budget grant is read at *execution* start (inside
        # the worker thread), not submit time: a job that queued behind
        # siblings picks up whatever budget they left unspent.
        config = job.config if schedule is None else schedule.config_for_run(job)
        started = time.perf_counter()
        result_set = algo.run(graph, job.seed_sets, config, context=context)
        return result_set, time.perf_counter() - started

    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-ctp") as pool:
        outcomes, followers = _fan_out(
            jobs, context, pool, lambda p, job: p.submit(run_one, job), schedule=schedule
        )
    _replay_memo(jobs, outcomes, followers, context)
    return _stamp_mode(outcomes, "thread")


def _stamp_mode(outcomes: List[Optional[CTPOutcome]], mode: str) -> List[CTPOutcome]:
    """Record what produced each outcome and drop the ``None`` gaps.

    Only jobs whose search actually executed get the pool's mode; outcomes
    served from the memo (phase 1) or shared from an in-flight leader
    never reached a worker, and claiming they ran "process" would defeat
    the observability the field exists for.
    """
    settled = [outcome for outcome in outcomes if outcome is not None]
    for outcome in settled:
        outcome.mode = "memo" if outcome.cache_hit else mode
    return settled


# ----------------------------------------------------------------------
# process-pool dispatch (mmap-shared snapshot, load-once-per-worker)
# ----------------------------------------------------------------------
#: Per-worker state: the snapshot graph loaded by the initializer and the
#: worker-private search context every job of this worker runs in.  Plain
#: module globals — each worker interpreter has its own copy.
_worker_graph: Any = None
_worker_context: Optional[SearchContext] = None
#: Delta-overlay state: the overlay assembled for the most recent delta
#: generation dispatched to this worker, keyed by (base_generation,
#: generation), plus the overlay-scoped context its jobs evaluate in.  One
#: overlay is kept — serving flights at one generation reuse it; a new
#: generation replaces it.
_worker_overlay: Any = None
_worker_overlay_key: Optional[Tuple[int, int]] = None
_worker_overlay_context: Optional[SearchContext] = None


def _process_worker_init(snapshot_path: str, fault_plan: Any = None, epoch: int = 0) -> None:
    """Executor initializer: load the mmap-shared snapshot ONCE per worker.

    Every job this worker ever runs reuses the same graph object (so the
    kernel shares the snapshot's pages across all workers mapping it) and
    the same private context (so sibling CTPs dispatched to this worker
    still get pool/cache reuse, just scoped to the worker).

    ``fault_plan``/``epoch`` re-install the parent's active
    :class:`~repro.faults.FaultPlan` in this worker (module globals do not
    cross the forkserver/spawn boundary) — *before* the snapshot load, so
    ``corrupt_snapshot`` faults can fire from the load itself.  Both
    default to inert values; production dispatch always ships ``None``.
    """
    global _worker_graph, _worker_context
    global _worker_overlay, _worker_overlay_key, _worker_overlay_context
    from repro import faults
    from repro.graph.snapshot import load_snapshot

    if fault_plan is not None:
        faults.install_plan(fault_plan, epoch=epoch)
    _worker_graph = load_snapshot(snapshot_path)
    _worker_context = SearchContext()
    _worker_overlay = None
    _worker_overlay_key = None
    _worker_overlay_context = None


def _worker_state_for(delta: Any) -> Tuple[Any, Optional[SearchContext]]:
    """The (graph, context) a worker job evaluates against.

    ``delta=None`` is the base-only fast path: the mmap-loaded snapshot
    and the long-lived worker context.  A :class:`~repro.graph.delta.GraphDelta`
    selects (building on first sight) the overlay for its generation — the
    base stays loaded, the delta is applied on top, and the overlay gets
    its own context so generation-scoped cache state never mixes with the
    base's.  Consistency is structural: the overlay validates the delta's
    base generation against the snapshot's recorded one.
    """
    global _worker_overlay, _worker_overlay_key, _worker_overlay_context
    if delta is None:
        return _worker_graph, _worker_context
    key = (delta.base_generation, delta.generation)
    if _worker_overlay_key != key:
        from repro.graph.delta import OverlayGraph

        _worker_overlay = OverlayGraph(_worker_graph, delta)
        _worker_overlay_context = SearchContext()
        _worker_overlay_key = key
    return _worker_overlay, _worker_overlay_context


def _process_worker_run(
    algorithm: str, seed_sets: List[Any], config: SearchConfig, delta: Any = None
) -> Tuple[CTPResultSet, float]:
    """Evaluate one CTP inside a worker against the worker's graph/context.

    ``delta`` (shipped per job by the pooled dispatcher) overlays the
    worker's mmap-loaded base snapshot so the evaluation sees the exact
    generation the parent pinned — without re-serializing the graph.
    """
    from repro import faults

    faults.inject(faults.SITE_WORKER_RUN)
    graph, context = _worker_state_for(delta)
    started = time.perf_counter()
    result_set = get_algorithm(algorithm).run(graph, seed_sets, config, context=context)
    return result_set, time.perf_counter() - started


def _process_pool_context() -> multiprocessing.context.BaseContext:
    """Pick a start method that is both safe and cheap for this dispatch.

    Plain ``fork`` is the cheapest start (no re-import, instant workers)
    but is unsafe the moment the parent has *other running threads* —
    exactly the serving regime this feature targets — because the child
    inherits a snapshot of every lock (logging, allocator) in whatever
    state some unrelated thread held it, and can deadlock in its
    initializer.  So fork is used only when the parent is provably
    single-threaded *right now* (only an existing thread could spawn a new
    one mid-fork, so the check cannot be raced); a threaded parent gets
    ``forkserver`` — workers forked from a clean single-thread helper
    process — and platforms without either (Windows) keep their default
    (``spawn``), which is already safe.
    """
    methods = multiprocessing.get_all_start_methods()
    if threading.active_count() == 1 and "fork" in methods:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()


def _jobs_picklable(algorithm: str, jobs: Sequence[CTPJob], delta: Any = None) -> bool:
    """Pre-flight: can every job (and its delta, if any) cross a process boundary?

    A ``SearchConfig`` carrying a lambda/closure score function (or seed
    values pickle refuses) cannot be shipped to a worker — nor can a delta
    whose appended nodes/edges carry unpicklable properties; detecting
    that up front lets dispatch degrade gracefully instead of raising
    from deep inside the executor machinery.
    """
    try:
        pickle.dumps((algorithm, delta, [(job.seed_sets, job.config) for job in jobs]))
        return True
    except (pickle.PicklingError, TypeError, AttributeError):
        return False


def _fallback_dispatch(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    workers: int,
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    """Process dispatch unavailable: degrade to threads, else serial.

    Used when the jobs or graph cannot be pickled/snapshotted, or when the
    worker pool breaks mid-flight.  Thread dispatch requires a thread-safe
    (or absent) context; otherwise the always-correct serial loop runs.
    """
    if context is None or context.thread_safe:
        return _run_parallel(graph, algorithm, jobs, context, workers, schedule)
    return _run_serial(graph, algorithm, jobs, context, schedule)


def _run_process(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    workers: int,
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    """Fan the jobs out to worker *processes* over an mmap-shared snapshot.

    The parent resolves the backend and obtains a snapshot file for the
    graph (reusing one when the graph was loaded from — or already saved
    to — a snapshot); workers load it once in their initializer.  Memo
    serve/file happens entirely in the parent (phases 1/3 of
    :func:`_fan_out`/:func:`_replay_memo`), in CTP order, so cache state
    matches serial dispatch exactly.  Rows are bit-identical to serial:
    each engine run is deterministic given (graph, seeds, config), and the
    CSR snapshot preserves ids, adjacency order, labels, and weights
    exactly (see ``tests/test_snapshot.py``).
    """
    resolved = resolve_backend(graph, jobs[0].config.backend)
    try:
        _, snapshot_path = ensure_snapshot(resolved)
    except (ReproError, OSError, pickle.PicklingError, TypeError, AttributeError):
        # Unserializable metadata (e.g. exotic node properties): the graph
        # cannot cross a process boundary.
        return _fallback_dispatch(resolved, algorithm, jobs, context, workers, schedule)
    if not _jobs_picklable(algorithm, jobs):
        return _fallback_dispatch(resolved, algorithm, jobs, context, workers, schedule)
    from repro import faults

    def submit_one(p: Any, job: CTPJob) -> Any:
        # A process job's grant is read at submit time (the worker cannot
        # reach the parent's ledger); the shipped config carries it.
        config = job.config if schedule is None else schedule.config_for_run(job)
        return p.submit(_process_worker_run, algorithm, job.seed_sets, config)

    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_process_pool_context(),
            initializer=_process_worker_init,
            initargs=(snapshot_path, faults.active_plan(), 0),
        ) as pool:
            outcomes, followers = _fan_out(jobs, context, pool, submit_one, schedule=schedule)
    except BrokenProcessPool:
        return _fallback_dispatch(resolved, algorithm, jobs, context, workers, schedule)
    _replay_memo(jobs, outcomes, followers, context)
    return _stamp_mode(outcomes, "process")


def _degraded_from_process(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    parallelism: int,
    report: Optional[ResilienceReport] = None,
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    """Give up on pooled process dispatch: run threads, else serial.

    Same eligibility rules as :func:`_fallback_dispatch` (threads need a
    thread-safe or absent context and more than one job/worker), but the
    hop is stamped into each executed outcome's ``mode`` —
    ``"process->thread"`` / ``"process->serial"`` — so a degraded pooled
    dispatch is distinguishable both from a healthy pooled run and from
    the per-call fallback path (whose plain ``"thread"``/``"serial"``
    stamps are unchanged).  Memo-served outcomes keep ``"memo"``.
    """
    workers = effective_parallelism(parallelism, len(jobs), context, "thread")
    if workers > 1 and (context is None or context.thread_safe):
        outcomes = _run_parallel(graph, algorithm, jobs, context, workers, schedule)
        hop = "thread"
    else:
        outcomes = _run_serial(graph, algorithm, jobs, context, schedule)
        hop = "serial"
    for outcome in outcomes:
        if outcome.mode != "memo":
            outcome.mode = f"process->{outcome.mode}"
    if report is not None:
        report.degraded_to = hop
    return outcomes


def _watchdog_budget(jobs: Sequence[CTPJob], pool: "WorkerPool") -> float:
    """The hang watchdog for one pooled fan-out, in seconds.

    Sum of the jobs' own CTP timeouts — a query deadline has already
    capped each one to the remaining wall budget at job-build time, so
    this is deadline-derived where a deadline exists — with the pool's
    ``hang_timeout`` standing in for unbounded jobs, plus a fixed grace
    for spawn/queue/serialization overhead.  The sum (not the max) is the
    honest bound: with fewer workers than jobs the slowest schedule runs
    them back to back.
    """
    rules = pool.resilience
    per_job = sum(
        job.config.timeout if job.config.timeout is not None else rules.hang_timeout
        for job in jobs
    )
    return per_job + rules.hang_grace


def _run_process_pooled(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    pool: "WorkerPool",
    parallelism: int,
    report: Optional[ResilienceReport] = None,
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    """Fan the jobs out to a *persistent* :class:`~repro.query.pool.WorkerPool`.

    Same three-phase protocol as :func:`_run_process` (parent-side memo
    serve, in-flight dedup, CTP-order memo replay) — the difference is
    purely *who owns the executor*: the pool keeps its workers (and their
    mmap-loaded graphs and warm per-worker contexts) alive across calls,
    so this dispatch pays zero spin-up once the pool is warm.

    Failure policy (the pool's :class:`~repro.query.resilience.RetryPolicy`
    + :class:`~repro.query.resilience.CircuitBreaker`):

    * Every fan-out runs under a **hang watchdog** derived from the jobs'
      CTP timeouts (:func:`_watchdog_budget`); blowing it kill-respawns
      the workers (:meth:`~repro.query.pool.WorkerPool.recover_from_hang`)
      instead of waiting forever.
    * A retryable infrastructure failure (``BrokenProcessPool``, hang,
      ``OSError``) respawns the workers and re-runs the fan-out — the
      evaluation is idempotent — up to the policy's attempt budget, with
      jittered backoff, and never when the backoff would overrun the
      deadline budget the jobs have left.  Each failure feeds the
      breaker; a final success resets it.
    * Exhausted retries (or an unpicklable/unsnapshotable workload, which
      no respawn can fix) degrade to :func:`_degraded_from_process` —
      thread or serial with the hop stamped in ``mode`` — rather than
      failing the query.  Deterministic evaluation errors (e.g. a raising
      scorer) are *not* retried or degraded: they propagate to the caller
      as typed errors, because re-running them elsewhere would just fail
      again — or worse, mask a real bug.
    """

    def degrade() -> List[CTPOutcome]:
        return _degraded_from_process(
            graph, algorithm, jobs, context, parallelism, report, schedule
        )

    policy = pool.retry_policy
    breaker = pool.breaker
    try:
        delta = pool.prepare_for(graph)
    except StaleViewError:
        # Not a pool failure — the pinned view outlived the workers' base
        # (a compaction moved past it), so serve it in-process instead of
        # charging the breaker for an outdated reader.
        _note_pool_state(report, pool)
        return degrade()
    except (ReproError, OSError, pickle.PicklingError, TypeError, AttributeError):
        breaker.record_failure()
        _note_pool_state(report, pool)
        return degrade()
    if not _jobs_picklable(algorithm, jobs, delta):
        # Not a pool failure — the workload itself cannot cross a process
        # boundary, so the breaker is not charged for it.
        _note_pool_state(report, pool)
        return degrade()

    def submit_one(p: "WorkerPool", job: CTPJob) -> Any:
        config = job.config if schedule is None else schedule.config_for_run(job)
        return p.submit(algorithm, job.seed_sets, config, delta=delta)

    watchdog = _watchdog_budget(jobs, pool)
    budget = min(
        (job.config.timeout for job in jobs if job.config.timeout is not None),
        default=None,
    )
    started = time.monotonic()
    rng = policy.rng()
    attempt = 1
    while True:
        try:
            outcomes, followers = _fan_out(
                jobs, context, pool, submit_one, result_timeout=watchdog, schedule=schedule
            )
            breaker.record_success()
            break
        except policy.retryable as error:
            breaker.record_failure()
            try:
                if isinstance(error, WorkerHangError):
                    if report is not None:
                        report.hangs += 1
                    pool.recover_from_hang()
                else:
                    pool.respawn()
                if report is not None:
                    report.respawns += 1
            except (PoolClosedError, ReproError, OSError):
                # The pool cannot be rebuilt (closed under us, snapshot
                # gone): no retry can succeed on it.
                _note_pool_state(report, pool)
                return degrade()
            if not policy.should_retry(
                attempt, error, elapsed=time.monotonic() - started, budget=budget
            ):
                _note_pool_state(report, pool)
                return degrade()
            backoff = policy.backoff_seconds(attempt, rng)
            if backoff > 0:
                time.sleep(backoff)
            if report is not None:
                report.retries += 1
            attempt += 1
    _note_pool_state(report, pool)
    _replay_memo(jobs, outcomes, followers, context)
    return _stamp_mode(outcomes, "process")


def _note_pool_state(report: Optional[ResilienceReport], pool: "WorkerPool") -> None:
    """Record the pool's breaker state and recycle count on the report."""
    if report is not None:
        report.breaker_state = pool.breaker.state
        report.recycled_workers = pool.recycles


# ----------------------------------------------------------------------
# pipelined step-(A)→(B) dispatch
# ----------------------------------------------------------------------
class PipelinedDispatch:
    """Overlap step (A) BGP evaluation with step (B) connection search.

    The barrier dispatch waits for *every* BGP table before building any
    CTP job, even though each CTP only needs the bindings of its **own**
    seed variables — EQL BGPs are connected components under shared
    variables (:meth:`EQLQuery.bgps`), so a seed variable is bound by at
    most one of them.  The evaluator drives this class instead when
    cost-model scheduling is on under thread dispatch: it evaluates BGPs
    one at a time on the calling thread and submits each CTP the moment
    its dependencies resolve (free-seed CTPs before any BGP runs), so
    connection search for early-resolved CTPs executes *while later BGPs
    are still materializing*.

    The serial path's observable semantics are preserved by the same
    three-phase discipline as :func:`_fan_out`: memo hits are served on
    submission, duplicate in-flight CTPs share one leader (non-replayable
    leaders re-run their followers), and :meth:`finish` barriers, then
    files the memo in CTP order (:func:`_replay_memo`) — rows and cache
    LRU state are bit-identical to serial.  Thread-mode only: process
    dispatch keeps the historical barrier (shipping jobs mid-(A) would
    serialize on snapshot pickling anyway).
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: str,
        context: Optional[SearchContext],
        workers: int,
        backend: str = "auto",
        schedule: Optional[QuerySchedule] = None,
    ) -> None:
        # Backend resolved once, for the same freeze-race reason as
        # _run_parallel.
        self.graph = resolve_backend(graph, backend)
        self.algo = get_algorithm(algorithm)
        self.context = context
        self.schedule = schedule
        self.overlapped = 0
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-ctp-pipe"
        )
        self._jobs: List[CTPJob] = []
        self._futures: Dict[int, Any] = {}
        self._memo_hits: Dict[int, CTPResultSet] = {}
        self._leaders: Dict[Hashable, int] = {}
        self._followers_of: Dict[int, List[CTPJob]] = {}

    def _run_one(self, job: CTPJob) -> Tuple[CTPResultSet, float]:
        config = job.config if self.schedule is None else self.schedule.config_for_run(job)
        started = time.perf_counter()
        result_set = self.algo.run(self.graph, job.seed_sets, config, context=self.context)
        return result_set, time.perf_counter() - started

    def submit_ready(self, jobs: Sequence[CTPJob], overlapped: bool = False) -> None:
        """Submit jobs whose seed bindings just resolved, longest-first.

        ``overlapped`` marks jobs entering while step (A) still has BGPs
        to evaluate — the pipeline-overlap count the schedule telemetry
        reports.
        """
        ordered = list(jobs)
        if self.schedule is not None:
            ordered = self.schedule.ordered(ordered, lambda job: job.index)
        for job in ordered:
            self._submit(job, overlapped)

    def _submit(self, job: CTPJob, overlapped: bool) -> None:
        self._jobs.append(job)
        if self.context is not None and job.memo_key is not None:
            cached = self.context.ctp_cache.get(job.memo_key)
            if cached is not None:
                self._memo_hits[job.index] = cached
                if self.schedule is not None:
                    self.schedule.settle(job.index)
                return
        key = job.memo_key
        if key is not None:
            leader = self._leaders.get(key)
            if leader is not None:
                # In-flight dedup: ride the leader, settle when it does.
                self._followers_of[leader].append(job)
                return
            self._leaders[key] = job.index
        self._followers_of[job.index] = []
        if overlapped:
            self.overlapped += 1
        if self.schedule is not None:
            self.schedule.record_submits([job.index])
        self._futures[job.index] = self._executor.submit(self._run_one, job)

    def abort(self) -> None:
        """Best-effort teardown when step (A) fails mid-pipeline."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    def finish(self) -> List[CTPOutcome]:
        """Barrier: settle every submitted job, replay the memo, stamp modes."""
        jobs = sorted(self._jobs, key=lambda job: job.index)
        size = max((job.index for job in jobs), default=-1) + 1
        outcomes: List[Optional[CTPOutcome]] = [None] * size
        followers: List[int] = []

        def settle(index: int) -> None:
            if self.schedule is not None:
                self.schedule.settle(index)

        try:
            for index, cached in self._memo_hits.items():
                outcomes[index] = CTPOutcome(cached, True, 0.0)
            rerun_futures: List[Tuple[CTPJob, Any]] = []
            future_to_index = {future: index for index, future in self._futures.items()}
            for future in as_completed(future_to_index):
                index = future_to_index[future]
                result_set, seconds = future.result()
                outcomes[index] = CTPOutcome(result_set, False, seconds)
                settle(index)
                group = self._followers_of.get(index, [])
                if _replayable(result_set):
                    for follower in group:
                        outcomes[follower.index] = CTPOutcome(result_set, True, 0.0)
                        followers.append(follower.index)
                        settle(follower.index)
                else:
                    rerun_futures.extend(
                        (job, self._executor.submit(self._run_one, job)) for job in group
                    )
            for job, future in rerun_futures:
                result_set, seconds = future.result()
                outcomes[job.index] = CTPOutcome(result_set, False, seconds)
                settle(job.index)
        finally:
            self._executor.shutdown(wait=True)
        _replay_memo(jobs, outcomes, followers, self.context)
        if self.schedule is not None:
            self.schedule.report.pipeline_overlaps = self.overlapped
        return _stamp_mode(outcomes, "thread")


# ----------------------------------------------------------------------
# batch front-end
# ----------------------------------------------------------------------
@dataclass
class BatchResult:
    """The outcome of :func:`evaluate_queries`: per-query results + context.

    Iterates/indexes like a list of :class:`~repro.query.evaluator.QueryResult`.
    ``context`` is the shared search context the batch ran in (``None``
    under ``shared_context=False``); its counters are *cumulative over the
    batch*, so ``context_stats()`` read after query *k* includes queries
    ``0..k``.
    """

    results: List["QueryResult"] = field(default_factory=list)
    context: Optional[SearchContext] = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator["QueryResult"]:
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def context_stats(self) -> Optional[Dict[str, int]]:
        """The shared context's cumulative counters (``None`` without one)."""
        return self.context.stats_dict() if self.context is not None else None

    def merged_ctp_stats(self) -> SearchStats:
        """All CTP search counters of the batch, merged in (query, CTP) order.

        Deterministic regardless of worker count: the merge order is the
        batch's declaration order, never completion order.  Memo-hit CTPs
        contribute the cached run's stats (they replay its result set).
        """
        return SearchStats.merged(
            report.result_set.stats for result in self.results for report in result.ctp_reports
        )


def evaluate_queries(
    graph: Graph,
    queries: Sequence,
    algorithm: str = "molesp",
    base_config: Optional[SearchConfig] = None,
    default_timeout: Optional[float] = None,
    distinct: bool = True,
    context: Optional[SearchContext] = None,
    pool: Optional["WorkerPool"] = None,
) -> BatchResult:
    """Evaluate many EQL queries against **one** shared search context.

    The batch shape of the evaluator: queries run sequentially (each
    query's CTPs dispatch in parallel per ``base_config.parallelism``),
    but they all adopt the same context — a CONNECT one query evaluated is
    a cross-query memo hit for every later query that repeats it, and the
    interning pool warms once for the whole batch.  An empty ``queries``
    sequence is legal and returns an empty batch.

    The cross-CTP memo stays safe across the batch by construction: its
    keys carry the graph's size fingerprint, so growing the (append-only)
    graph between queries invalidates every entry cached before the
    mutation instead of replaying stale result sets.

    Pass an explicit ``context`` to amortize across *batches*; otherwise
    one is created per call (thread-safe when ``parallelism > 1``) —
    unless ``base_config.shared_context`` is false, which keeps the
    pool-per-CTP A/B baseline and returns ``BatchResult.context = None``.

    ``pool`` is the process-side analogue: a persistent
    :class:`~repro.query.pool.WorkerPool` routes every query's
    ``"process"``-mode dispatch through the same long-lived workers, so
    the batch pays executor spin-up and per-worker snapshot loads once —
    not once per query (the PR-5 behaviour this parameter fixes).
    """
    from repro.query.evaluator import evaluate_query  # local: evaluator imports us

    base_config = base_config or SearchConfig()
    if context is None and base_config.shared_context:
        context = SearchContext(thread_safe=base_config.parallelism > 1)
    results = [
        evaluate_query(
            graph,
            query,
            algorithm=algorithm,
            base_config=base_config,
            default_timeout=default_timeout,
            distinct=distinct,
            context=context,
            pool=pool,
        )
        for query in queries
    ]
    return BatchResult(results=results, context=context)
