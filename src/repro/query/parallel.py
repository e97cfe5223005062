"""CTP dispatch — one loop, whatever runs the searches — and the batch front-end.

Section 3 of the paper has one step (B): "for every CTP, derive its seed
sets, run a CTP search".  Section 5 evaluates each CONNECT clause as an
independent invocation, so the searches may overlap once the query-scoped
state is safe to share.  This module implements that step **once**:

:class:`Dispatch`
    ``submit(jobs)`` any number of times, then ``finish()`` → one
    :class:`CTPOutcome` per job in CTP order.  It owns everything the
    serial evaluator loop (memo get → search → memo put, per CTP) means,
    so every executor preserves that loop's observable semantics:

    * **rows** — each engine run is deterministic given (graph, seeds,
      config) and never reads another run's private state, so results are
      bit-identical to serial whatever the worker count or completion
      order;
    * **cross-CTP memo** — a job is served from the memo when it is
      submitted, or rides an *in-flight* job with the same memo key (one
      leader searches; followers share its result exactly when the serial
      loop would have served a memo hit — complete, untruncated — and
      re-run otherwise).  Filing is replayed in CTP order at ``finish()``,
      so the cache's hits, misses and LRU order are the serial loop's and
      never depend on worker scheduling (short of an eviction landing
      between a probe and its replay);
    * **deadline ledger** — a job's budget grant is read when it starts
      executing and settled from its future's done-callback, so a fast
      CTP's unspent budget reaches the ones still pending;
    * **stats** — per-CTP ``SearchStats`` stay on their reports and merge
      in CTP order, never completion order.  Only the shared-pool
      ``pool_*`` deltas become approximate under concurrency.

    What runs a job is a seam of three things: ``start(job)`` returning a
    future of ``(result_set, seconds)``, a ``shutdown`` and the ``mode``
    stamp.  :class:`InlineExecutor` runs at submit on the calling thread —
    that *is* the serial path; a ``ThreadPoolExecutor`` overlaps
    deadline-bounded CTPs' wall-clock budgets under the GIL (m concurrent
    timeouts cost ~T, not m*T); a :class:`~repro.query.pool.WorkerPool`
    gives CPU-bound searches real multi-core overlap — workers are separate
    interpreters that load an mmap-shared CSR snapshot once and keep a
    private :class:`SearchContext`, while the parent alone serves and files
    the memo.

:class:`_PooledDispatch`
    The failure policy around the pool executor, applied once: breaker
    gate, picklability pre-flight, hang watchdog, retry-after-respawn, and
    the process → thread → serial degradation with the hop stamped in
    ``mode``.  ``parallelism_mode="process"`` without a usable injected
    pool runs the very same path on a pool that lives for the call.

:func:`evaluate_queries`
    The batch front-end: many queries against **one** shared context, so
    repeated CONNECTs across queries become cross-query memo hits and the
    interning pool amortizes across the batch — the multi-user serving
    shape (many queries, one graph).

``python -m repro.bench parallel`` / ``process-parallel`` measure what
each executor buys and re-check row identity.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.ctp.config import SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.registry import get_algorithm
from repro.ctp.results import CTPResultSet
from repro.ctp.stats import SearchStats
from repro.errors import GraphError, PoolClosedError, ReproError, StaleViewError, WorkerHangError
from repro.graph.graph import Graph
from repro.query.costmodel import QuerySchedule
from repro.query.pool import WorkerPool
from repro.query.resilience import ResilienceReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evaluator imports us)
    from repro.query.evaluator import QueryResult


@dataclass
class CTPJob:
    """One CTP evaluation of a query, ready to dispatch.

    ``memo_key`` is the evaluator's cross-CTP memo key; ``None`` (a job
    built by hand) is always searched and never filed.  ``index`` is the
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
    therefore differ from the requested ``parallelism_mode``: a process
    dispatch that could not cross the process boundary, exhausted its
    retries or was refused by an open circuit breaker stamps the hop —
    ``"process->thread"`` / ``"process->serial"``.  The fallback is silent
    for the query by design, but it must stay *observable* so a ~0.9x
    thread run never masquerades as multi-core.
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
    """Serial memo rule: only complete, untruncated runs are safe to share
    (a timeout cut is wall-clock-dependent)."""
    return result_set.complete and not result_set.timed_out


class InlineExecutor:
    """The serial executor: ``submit`` runs the call on the calling thread.

    Returns an already-resolved ``Future``, so one dispatch loop serves
    inline and pooled execution alike.  Only ``Exception`` is parked in
    the future — an interrupt must stop a serial query where it is.
    """

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # noqa: BLE001 - mirror executor semantics
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """No-op (nothing is ever pending); present for executor parity."""


class Dispatch:
    """Step (B), once: memo serve → dedup → run → settle → CTP-order replay.

    ``start(job)`` must return a future of ``(result_set, seconds)``;
    ``mode`` is stamped on every outcome whose search actually executed
    (memo-served and shared outcomes say ``"memo"`` — claiming a worker ran
    them would defeat the observability the field exists for).

    ``submit`` may be called any number of times before ``finish``: the
    evaluator feeds jobs as their seed variables resolve, and "barrier"
    dispatch is simply the case of one call.  Within a call, distinct memo
    keys are started **longest-first** by the schedule's estimates (ties by
    CTP index, so the order is deterministic): with fewer workers than
    leaders, starting the stragglers first shrinks the makespan.
    ``reorder=False`` keeps CTP order — an inline executor overlaps
    nothing, and CTP order is the reference the serial deadline ledger is
    defined against.  Order is representation-only either way: outcomes
    are keyed by CTP index and the memo is replayed in CTP order.

    ``watchdog`` (pool executor only) is a wall-clock budget for the whole
    dispatch.  Blowing it raises :class:`~repro.errors.WorkerHangError` —
    a worker that cannot even return a ``timed_out`` partial result inside
    its own budget plus grace is wedged, and waiting longer would hold the
    dispatch forever.
    """

    def __init__(
        self,
        context: Optional[SearchContext],
        schedule: QuerySchedule,
        start: Callable[[CTPJob], "Future[Tuple[CTPResultSet, float]]"],
        mode: str,
        shutdown: Optional[Callable[..., None]] = None,
        watchdog: Optional[float] = None,
        reorder: bool = True,
    ) -> None:
        self.context = context
        self.schedule = schedule
        self.mode = mode
        self._start_one = start
        self._shutdown = shutdown
        self._watchdog = watchdog
        self._expires = None if watchdog is None else time.monotonic() + watchdog
        self._reorder = reorder
        self._jobs: List[CTPJob] = []
        self._outcomes: Dict[int, CTPOutcome] = {}
        #: memo key -> the future of the job searching it (in-flight dedup).
        self._leaders: Dict[Hashable, "Future[Any]"] = {}
        #: leader future -> [leader, followers still waiting on it...].
        self._running: Dict["Future[Any]", List[CTPJob]] = {}
        self._reruns: List[Tuple[CTPJob, "Future[Any]"]] = []
        #: CTP indices that rode an in-flight leader (they register their
        #: memo hit during the replay, not at submit).
        self.followers: List[int] = []
        #: Leaders started while step (A) still had BGPs to evaluate.
        self.overlapped = 0

    def __enter__(self) -> "Dispatch":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        """Release the executor.  On an error queued jobs are dropped without
        waiting (step (A) or a sibling job failed — nobody will read them)."""
        if self._shutdown is not None:
            failed = exc_type is not None
            self._shutdown(wait=not failed, cancel_futures=failed)

    def _start(self, job: CTPJob) -> "Future[Any]":
        future = self._start_one(job)
        # Settled where the run ends, not at finish(): under the inline
        # executor the next job's grant must already see this one gone.
        # The callback holds the schedule, not this dispatch: through
        # ``self`` it would close a cycle with ``_running`` and leave every
        # query's result sets to the cyclic collector.
        settle, index = self.schedule.settle, job.index
        future.add_done_callback(lambda _done: settle(index))
        if future.done():
            future.result()  # an inline run that raised stops the query here
        return future

    def _follow(self, job: CTPJob, leader: "Future[Any]") -> None:
        """``job`` repeats an in-flight memo key: no probe, ride the leader."""
        self.followers.append(job.index)
        if leader.done():
            self._share(job, leader.result()[0])
        else:
            self._running[leader].append(job)

    def _share(self, job: CTPJob, result_set: CTPResultSet) -> None:
        """Settle a follower against its finished leader's result set."""
        if _replayable(result_set):
            # Exactly the runs the serial loop would serve as memo hits.
            self._outcomes[job.index] = CTPOutcome(result_set, True, 0.0, "memo")
            self.schedule.settle(job.index)
        else:
            # Re-run at once, so the rerun overlaps still-running leaders
            # instead of queueing behind the slowest one.
            self._reruns.append((job, self._start(job)))

    def submit(self, jobs: Sequence[CTPJob], overlapped: bool = False) -> None:
        """Serve, dedup and start ``jobs``.

        ``overlapped`` marks jobs entering while step (A) still has BGPs to
        evaluate — the pipeline-overlap count the schedule telemetry reports.
        """
        context = self.context
        groups: Dict[Hashable, List[CTPJob]] = {}
        for job in jobs:
            self._jobs.append(job)
            key = job.memo_key
            if key is None:
                groups[("__unkeyed__", job.index)] = [job]
            elif key in self._leaders:
                self._follow(job, self._leaders[key])
            elif key in groups:
                groups[key].append(job)
            else:
                cached = context.memo_get(key) if context is not None else None
                if cached is None:
                    groups[key] = [job]
                else:
                    self._outcomes[job.index] = CTPOutcome(cached, True, 0.0, "memo")
                    self.schedule.settle(job.index)
        ordered = list(groups.values())
        if self._reorder:
            ordered = self.schedule.ordered(ordered, lambda group: group[0].index)
            self.schedule.record_submits([group[0].index for group in ordered])
        started = []
        for group in ordered:  # every leader first, then the riders
            self.overlapped += overlapped
            future = self._start(group[0])
            self._running[future] = [group[0]]
            if group[0].memo_key is not None:
                self._leaders[group[0].memo_key] = future
            started.append((future, group[1:]))
        for future, riders in started:
            for job in riders:
                self._follow(job, future)

    def _remaining(self) -> Optional[float]:
        if self._expires is None:
            return None
        return max(1e-3, self._expires - time.monotonic())

    def finish(self) -> List[CTPOutcome]:
        """Barrier: settle every submitted job, replay the memo in CTP order.

        Leaders settle as they finish, not in submission order, and the
        completion order never shows: outcomes are keyed by CTP index.
        """
        outcomes = self._outcomes
        try:
            for future in as_completed(list(self._running), timeout=self._remaining()):
                leader, *waiting = self._running[future]
                result_set, seconds = future.result()
                outcomes[leader.index] = CTPOutcome(result_set, False, seconds, self.mode)
                for job in waiting:
                    self._share(job, result_set)
            for job, future in self._reruns:
                result_set, seconds = future.result(timeout=self._remaining())
                outcomes[job.index] = CTPOutcome(result_set, False, seconds, self.mode)
        except TimeoutError as error:
            raise WorkerHangError(
                f"dispatch of {len(self._running) + len(self._reruns)} CTP job(s) exceeded "
                f"its {self._watchdog}s hang watchdog"
            ) from error
        jobs = sorted(self._jobs, key=lambda job: job.index)
        if self.context is not None:
            self._replay(jobs, self.context)
        self.schedule.report.pipeline_overlaps = self.overlapped
        return [outcomes[job.index] for job in jobs]

    def _replay(self, jobs: Sequence[CTPJob], context: SearchContext) -> None:
        """Replay the serial loop's cache traffic in CTP order.

        Followers register the hit they would have had; everything else
        that is replayable is filed — a leader's fresh result, a re-run
        follower's, and (a recency refresh only: the same object under its
        key) the set a job was served at submit.  Running this after the
        barrier keeps the memo's LRU order, and therefore its eviction
        choices, independent of worker scheduling.
        """
        followers = set(self.followers)
        for job in jobs:
            if job.memo_key is None:
                continue
            if job.index in followers and context.memo_get(job.memo_key) is not None:
                continue
            result_set = self._outcomes[job.index].result_set
            if _replayable(result_set):
                context.memo_put(job.memo_key, result_set)


def _local_dispatch(
    graph: Graph,
    algorithm: str,
    context: Optional[SearchContext],
    workers: int,
    schedule: QuerySchedule,
    hop: str = "",
) -> Dispatch:
    """A :class:`Dispatch` over this process: inline, or ``workers`` threads."""
    algo = get_algorithm(algorithm)

    def run_one(job: CTPJob) -> Tuple[CTPResultSet, float]:
        # The deadline-budget grant is read at *execution* start (inside
        # the worker thread), not submit time: a job that queued behind
        # siblings picks up whatever budget they left unspent.
        config = schedule.config_for_run(job)
        started = time.perf_counter()
        result_set = algo.run(graph, job.seed_sets, config, context=context)
        return result_set, time.perf_counter() - started

    if workers > 1:
        executor: Any = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-ctp")
    else:
        executor = InlineExecutor()
    return Dispatch(
        context,
        schedule,
        lambda job: executor.submit(run_one, job),
        hop + ("thread" if workers > 1 else "serial"),
        shutdown=executor.shutdown,
        reorder=workers > 1,
    )


def open_dispatch(
    graph: Graph,
    algorithm: str,
    context: Optional[SearchContext],
    num_jobs: int,
    parallelism: int = 1,
    mode: str = "thread",
    pool: Optional[WorkerPool] = None,
    report: Optional[ResilienceReport] = None,
    schedule: Optional[QuerySchedule] = None,
) -> Any:
    """Pick the executor for a query of ``num_jobs`` CTPs; returns a context
    manager with ``submit(jobs)`` / ``finish()``.

    ``mode`` is ``"thread"`` or ``"process"`` (the evaluator resolves
    ``"auto"`` before it dispatches).  An injected ``pool`` is used for
    every process-mode dispatch — even a single job, even ``parallelism ==
    1``: a warm worker beats any spin-up, and on a single-core host the
    serving layer's whole win *is* the eliminated spin-up.  A closed pool,
    or one bound to a different graph, is ignored rather than trusted;
    process mode then builds a pool for the call when more than one worker
    would run, and otherwise collapses to the inline executor like thread
    mode does.  ``schedule`` carries the cost estimates that order the
    fan-out and the deadline ledger, if any; a caller with neither gets a
    blank one (CTP order, job timeouts as built).
    """
    if schedule is None:
        schedule = QuerySchedule()
    workers = effective_parallelism(parallelism, num_jobs, context, mode)
    if mode == "process" and num_jobs:
        report = report if report is not None else ResilienceReport()
        args = (graph, algorithm, context, parallelism, report, schedule)
        if pool is not None and not pool.closed and pool.matches(graph):
            return _PooledDispatch(pool, False, *args)
        if workers > 1:
            return _PooledDispatch(WorkerPool(graph, workers=workers), True, *args)
    return _local_dispatch(graph, algorithm, context, workers, schedule)


def run_ctp_jobs(
    graph: Graph,
    algorithm: str,
    jobs: Sequence[CTPJob],
    context: Optional[SearchContext],
    parallelism: int = 1,
    mode: str = "thread",
    pool: Optional[WorkerPool] = None,
    report: Optional[ResilienceReport] = None,
    schedule: Optional[QuerySchedule] = None,
) -> List[CTPOutcome]:
    """Evaluate ``jobs`` and return one :class:`CTPOutcome` per job, in order.

    The barrier form of :func:`open_dispatch` (see there for ``mode`` —
    ``"thread"`` or ``"process"`` — and ``pool``): everything is submitted
    at once.  ``report`` (a :class:`~repro.query.resilience.ResilienceReport`)
    collects what resilience machinery fired under process dispatch;
    ``schedule`` (a :class:`~repro.query.costmodel.QuerySchedule`) supplies
    the estimates for longest-first submission and the ledger for
    execution-time deadline-budget grants (the job configs carry build
    budgets; the ledger may re-grant upward, never downward).
    """
    with open_dispatch(
        graph, algorithm, context, len(jobs), parallelism, mode, pool, report, schedule
    ) as dispatch:
        dispatch.submit(jobs)
        return dispatch.finish()


# ----------------------------------------------------------------------
# process-pool dispatch (mmap-shared snapshot, load-once-per-worker)
# ----------------------------------------------------------------------
#: Per-worker state: the snapshot graph the worker maps, the base jobs name
#: it by — (snapshot path, base generation) — and the worker-private search
#: context every job over it runs in.  Plain module globals — each worker
#: interpreter has its own copy.
_worker_graph: Any = None
_worker_base: Optional[Tuple[str, Optional[int]]] = None
_worker_context: Optional[SearchContext] = None
#: Delta-overlay state: the overlay assembled for the most recent delta
#: generation dispatched to this worker, keyed by (base_generation,
#: generation), plus the overlay-scoped context its jobs evaluate in.  One
#: overlay is kept — serving flights at one generation reuse it; a new
#: generation replaces it.
_worker_overlay: Any = None
_worker_overlay_key: Optional[Tuple[int, int]] = None
_worker_overlay_context: Optional[SearchContext] = None


def _map_worker_base(base: Tuple[str, Optional[int]]) -> None:
    """Map ``base``'s snapshot, then drop the old graph, context and overlay
    (and with them the old mapping): a worker maps one base at a time."""
    global _worker_graph, _worker_base, _worker_context
    global _worker_overlay, _worker_overlay_key, _worker_overlay_context
    from repro.graph.snapshot import load_snapshot

    _worker_graph = load_snapshot(base[0])
    _worker_base, _worker_context = base, SearchContext()
    _worker_overlay = _worker_overlay_key = _worker_overlay_context = None


def _process_worker_init(
    snapshot_path: str, generation: Optional[int] = None, fault_plan: Any = None, epoch: int = 0
) -> None:
    """Executor initializer: map the executor's spawn-time base.

    Every job this worker ever runs reuses the same graph object (so the
    kernel shares the snapshot's pages across all workers mapping it) and
    the same private context (so sibling CTPs dispatched to this worker
    still get pool/cache reuse, just scoped to the worker) until a job
    names another base.  Forkserver/spawn workers start lazily, possibly
    after a base move released the spawn-time file: a *missing* file is
    superseded, and the first job names the live base.

    ``fault_plan``/``epoch`` re-install the parent's active
    :class:`~repro.faults.FaultPlan` in this worker (module globals do not
    cross the forkserver/spawn boundary) — *before* the snapshot load, so
    ``corrupt_snapshot`` faults can fire from the load itself.  Both
    default to inert values; production dispatch always ships ``None``.
    """
    global _worker_base
    from repro import faults

    if fault_plan is not None:
        faults.install_plan(fault_plan, epoch=epoch)
    try:
        _map_worker_base((snapshot_path, generation))
    except FileNotFoundError:
        _worker_base = None


def _worker_state_for(delta: Any, base: Any) -> Tuple[Any, Optional[SearchContext]]:
    """The (graph, context) a worker job evaluates against.

    ``base`` is the (snapshot path, base generation) the job was resolved
    against (``None``: whatever the worker maps).  A worker mapping another
    base maps the named one.  The pool unlinks a superseded file at once,
    so a base the worker no longer maps and cannot map raises the typed
    :class:`~repro.errors.StaleViewError`: the dispatch serves the pinned
    generation in-process, exactly as when ``prepare_for`` itself finds
    the view stale.

    ``delta=None`` is the base-only fast path: the mmap-loaded snapshot
    and the long-lived worker context.  A :class:`~repro.graph.delta.GraphDelta`
    selects (building on first sight) the overlay for its generation — the
    base stays loaded, the delta is applied on top, and the overlay gets
    its own context so generation-scoped cache state never mixes with the
    base's.  The overlay validates the delta's base against the mapped
    snapshot; a mismatch raises :class:`~repro.errors.StaleViewError` too.
    """
    global _worker_overlay, _worker_overlay_key, _worker_overlay_context
    if base is not None and base != _worker_base:
        try:
            _map_worker_base(base)
        except (OSError, GraphError) as error:
            raise StaleViewError(f"worker cannot map base {base[1]}: {error}") from error
    if delta is None:
        return _worker_graph, _worker_context
    key = (delta.base_generation, delta.generation)
    if _worker_overlay_key != key:
        from repro.graph.delta import OverlayGraph

        try:
            _worker_overlay = OverlayGraph(_worker_graph, delta)
        except GraphError as error:
            raise StaleViewError(f"worker base moved past the pinned view: {error}") from error
        _worker_overlay_context = SearchContext()
        _worker_overlay_key = key
    return _worker_overlay, _worker_overlay_context


def _process_worker_run(
    algorithm: str, seed_sets: List[Any], config: SearchConfig, delta: Any = None, base: Any = None
) -> Tuple[CTPResultSet, float]:
    """Evaluate one CTP inside a worker against the worker's graph/context.

    ``base`` and ``delta`` (shipped per job by the pooled dispatcher) name
    the snapshot the parent resolved and the overlay over it, so the
    evaluation sees the exact generation the parent pinned — without
    re-serializing the graph.
    """
    from repro import faults

    faults.inject(faults.SITE_WORKER_RUN)
    graph, context = _worker_state_for(delta, base)
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



def _watchdog_budget(jobs: Sequence[CTPJob], pool: WorkerPool) -> float:
    """The hang watchdog for one pooled fan-out, in seconds.

    Sum of the jobs' own CTP timeouts — under a query deadline these are
    the ledger's build budgets; an execution-time re-grant only moves
    budget a finished job left unspent, so the fan-out still ends inside
    the deadline the budgets were cut from — with the pool's
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


@dataclass
class _PooledDispatch:
    """The failure policy around the pool executor, applied once.

    Process dispatch is barrier-only (shipping jobs mid-step-(A) would
    serialize on snapshot pickling anyway), so ``submit`` holds the jobs
    and ``finish`` runs them: a :class:`Dispatch` whose ``start`` ships a
    job to the pool's long-lived workers, wrapped in the pool's
    :class:`~repro.query.resilience.CircuitBreaker` and
    :class:`~repro.query.resilience.RetryPolicy`:

    * While the breaker is open (repeated pool failures) dispatch degrades
      *directly* instead of paying a doomed spawn/fail cycle per query;
      half-open probes are admitted per the breaker's policy.  Every
      admitted dispatch settles the breaker: success closes it, each
      failed attempt is charged, and a dispatch that ends without learning
      anything about the pool (stale view, unpicklable workload, an
      evaluation error) hands its probe back — otherwise a spent probe
      would leave the breaker half-open with nothing left to admit.
    * Every attempt runs under a **hang watchdog** derived from the jobs'
      CTP timeouts (:func:`_watchdog_budget`); blowing it kill-respawns
      the workers instead of waiting forever.
    * A retryable infrastructure failure (``BrokenProcessPool``, hang,
      ``OSError``) respawns the workers and re-runs the fan-out — the
      evaluation is idempotent — up to the policy's attempt budget, with
      jittered backoff, and never when the backoff would overrun the
      smallest budget the jobs have left.
    * Exhausted retries, a workload that cannot cross the process boundary
      (no respawn can fix that) and a view the workers' base has moved
      past (:class:`~repro.errors.StaleViewError`, from ``prepare_for`` or
      from a worker that cannot map the base the job names) degrade to threads,
      else the inline executor, with the hop stamped — ``"process->thread"``
      / ``"process->serial"`` — rather than failing the query.
      Deterministic evaluation errors (a raising scorer) are *not* retried
      or degraded: they propagate as typed errors, because re-running them
      elsewhere would just fail again — or worse, mask a real bug.

    ``owned`` marks a pool built for this call: leaving the dispatch shuts
    its workers down but keeps the snapshot file ``ensure_snapshot``
    memoized on the graph, so the next call does not serialize it again.
    """

    pool: WorkerPool
    owned: bool
    graph: Graph
    algorithm: str
    context: Optional[SearchContext]
    parallelism: int
    report: ResilienceReport
    schedule: QuerySchedule
    jobs: List[CTPJob] = field(default_factory=list)

    def __enter__(self) -> "_PooledDispatch":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.owned:
            self.pool.close(release_snapshot=False)

    def submit(self, jobs: Sequence[CTPJob], overlapped: bool = False) -> None:
        self.jobs.extend(jobs)

    def _run(self, dispatch: Dispatch) -> List[CTPOutcome]:
        with dispatch:
            dispatch.submit(self.jobs)
            return dispatch.finish()

    def _degraded(self) -> List[CTPOutcome]:
        """Give up on the pool: run threads, else inline, stamping the hop."""
        workers = effective_parallelism(self.parallelism, len(self.jobs), self.context, "thread")
        self.report.degraded_to = "thread" if workers > 1 else "serial"
        return self._run(
            _local_dispatch(
                self.graph, self.algorithm, self.context, workers, self.schedule, hop="process->"
            )
        )

    def finish(self) -> List[CTPOutcome]:
        pool, report, jobs = self.pool, self.report, self.jobs
        breaker, policy = pool.breaker, pool.retry_policy
        if not breaker.allow():
            report.breaker_skips += 1
            self._note_pool_state()
            return self._degraded()
        verdict = False  # has the breaker heard anything about the pool yet?
        try:
            try:
                resolved = pool._resolve(self.graph)
            except StaleViewError:
                # Not a pool failure — the pinned view outlived the workers'
                # base (a compaction moved past it), so serve it in-process
                # instead of charging the breaker for an outdated reader.
                return self._degraded()
            except (ReproError, OSError, pickle.PicklingError, TypeError, AttributeError):
                breaker.record_failure()
                verdict = True
                return self._degraded()
            if not _jobs_picklable(self.algorithm, jobs, resolved.delta):
                # Not a pool failure either: the workload itself cannot
                # cross a process boundary.
                return self._degraded()

            def ship(job: CTPJob) -> "Future[Any]":
                # A process job's grant is read at submit time (the worker
                # cannot reach the parent's ledger); the shipped config
                # carries it, and `resolved` the base the job reads.
                config = self.schedule.config_for_run(job)
                return pool.submit(self.algorithm, job.seed_sets, config, delta=resolved)

            budget = min(
                (job.config.timeout for job in jobs if job.config.timeout is not None),
                default=None,
            )
            started = time.monotonic()
            rng = policy.rng()
            attempt = 1
            while True:
                try:
                    outcomes = self._run(
                        Dispatch(
                            self.context, self.schedule, ship, "process",
                            watchdog=_watchdog_budget(jobs, pool),
                        )
                    )
                    breaker.record_success()
                    verdict = True
                    return outcomes
                except StaleViewError:
                    return self._degraded()
                except policy.retryable as error:
                    breaker.record_failure()
                    verdict = True
                    try:
                        if isinstance(error, WorkerHangError):
                            report.hangs += 1
                            pool.recover_from_hang()
                        else:
                            pool.respawn()
                        report.respawns += 1
                    except (PoolClosedError, ReproError, OSError):
                        # The pool cannot be rebuilt (closed under us,
                        # snapshot gone): no retry can succeed on it.
                        return self._degraded()
                    if not policy.should_retry(
                        attempt, error, elapsed=time.monotonic() - started, budget=budget
                    ):
                        return self._degraded()
                    backoff = policy.backoff_seconds(attempt, rng)
                    if backoff > 0:
                        time.sleep(backoff)
                    report.retries += 1
                    attempt += 1
        finally:
            if not verdict:
                breaker.release()
            self._note_pool_state()

    def _note_pool_state(self) -> None:
        """Record the pool's breaker state and recycle count on the report."""
        self.report.breaker_state = self.pool.breaker.state
        self.report.recycled_workers = self.pool.recycles


# ----------------------------------------------------------------------
# batch front-end
# ----------------------------------------------------------------------
@dataclass
class BatchResult:
    """The outcome of :func:`evaluate_queries`: per-query results + context.

    Iterates/indexes like a list of :class:`~repro.query.evaluator.QueryResult`.
    ``context`` is the shared search context the batch ran in; its
    counters are *cumulative over the batch*, so ``context_stats()`` read
    after query *k* includes queries ``0..k``.
    """

    results: List["QueryResult"]
    context: SearchContext

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator["QueryResult"]:
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def context_stats(self) -> Dict[str, int]:
        """The shared context's cumulative counters."""
        return self.context.stats_dict()

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

    The cross-CTP memo stays safe across the batch by construction: each
    entry is stamped with the generation that filed it, so mutating the
    graph between queries makes every older entry miss instead of
    replaying a stale result set — unless the query runs on a pinned
    read view that proves the mutation cannot reach it
    (:meth:`~repro.ctp.context.SearchContext.memo_get`).

    Pass an explicit ``context`` to amortize across *batches*; otherwise
    one is created per call (thread-safe when ``parallelism > 1``).

    ``pool`` is the process-side analogue: a persistent
    :class:`~repro.query.pool.WorkerPool` routes every query's
    ``"process"``-mode dispatch through the same long-lived workers, so
    the batch pays executor spin-up and per-worker snapshot loads once —
    not once per query, as the call-scoped pool of a pool-less process
    dispatch does.
    """
    from repro.query.evaluator import evaluate_query  # local: evaluator imports us

    base_config = base_config or SearchConfig()
    if context is None:
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
