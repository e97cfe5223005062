"""CTP dispatch — one loop, one rule for what runs it — and the batch front-end.

Section 3 of the paper has one step (B): "for every CTP, derive its seed
sets, run a CTP search".  Section 5 evaluates each CONNECT clause as an
independent invocation, so the searches may overlap once the query-scoped
state is safe to share.  This module implements that step **once**:

:class:`Dispatch`
    ``run(jobs)`` → one :class:`CTPOutcome` per job in CTP order.  It owns
    everything the serial evaluator loop (memo get → search → memo put,
    per CTP) means, so every executor preserves that loop's observable
    semantics:

    * **rows** — each engine run is deterministic given (graph, seeds,
      config) and never reads another run's private state, so results are
      bit-identical to serial whatever the worker count or completion
      order;
    * **cross-CTP memo** — a job is served from the memo before anything
      starts, or rides an *in-flight* job with the same memo key (one
      leader searches; followers share its result exactly when the serial
      loop would have served a memo hit — complete, untruncated — and
      re-run otherwise).  Filing is replayed in CTP order once every job
      has settled, so the cache's hits, misses and LRU order are the
      serial loop's and never depend on worker scheduling (short of an
      eviction landing between a probe and its replay);
    * **deadline ledger** — a job's budget grant is read off the query's
      :class:`~repro.query.costmodel.DeadlineLedger` when it starts
      executing and settled from its future's done-callback, so a fast
      CTP's unspent budget reaches the ones still pending;
    * **stats** — per-CTP ``SearchStats`` stay on their reports and merge
      in CTP order, never completion order.

    What runs a job is a seam of three things: ``start(job)`` returning a
    future of ``(result_set, seconds)``, a ``shutdown`` and the ``mode``
    stamp.  :class:`InlineExecutor` runs at start on the calling thread —
    that *is* the serial path; a :class:`~repro.query.pool.WorkerPool`
    gives CPU-bound searches real multi-core overlap — workers are
    separate interpreters that load an mmap-shared CSR snapshot once and
    keep a private :class:`SearchContext`, while the parent alone serves
    and files the memo.

:func:`open_dispatch`
    The one rule for what runs a query's CTPs: the worker pool its caller
    passed in, when that pool can serve the graph; otherwise the calling
    thread, inline.

:class:`_PooledDispatch`
    The failure rule around the pool executor, applied once: picklability
    pre-flight, hang watchdog, and one answer to a pool that fails — tear
    its workers down, run the fan-out inline with the hop stamped in
    ``mode``, and let the next dispatch rebuild them.  Step (B) has two
    executors, the pool and the calling thread; it never starts a thread
    of its own.

:func:`evaluate_queries`
    The batch front-end: many queries against **one** shared context, so
    repeated CONNECTs across queries become cross-query memo hits and the
    interning pool amortizes across the batch — the multi-user serving
    shape (many queries, one graph).

``tests/test_parallel.py`` and ``tests/test_process_parallel.py`` hold
every executor's rows to the serial loop's.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from concurrent.futures import Future, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.ctp.config import SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.registry import get_algorithm
from repro.ctp.results import CTPResultSet
from repro.errors import GraphError, PoolClosedError, ReproError, StaleViewError, WorkerHangError
from repro.graph.delta import EncodedDelta, GraphDelta, OverlayGraph
from repro.graph.graph import Graph
from repro.query.costmodel import DeadlineLedger
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

    ``mode`` records what actually produced the result: ``"serial"`` or
    ``"process"`` for an executed search, ``"memo"`` when the result was
    served from the cross-CTP memo (or shared from an in-flight duplicate)
    and no search ran for this job at all.  A pooled dispatch that could
    not cross the process boundary, or whose workers crashed or hung, runs
    the job inline and stamps the hop, ``"process->serial"``.  The
    fallback is silent for the query by design, but it must stay
    *observable* so an inline run never masquerades as multi-core.
    """

    result_set: CTPResultSet
    cache_hit: bool
    seconds: float
    mode: str = "serial"


def serving_pool(pool: Optional[WorkerPool], graph: Graph) -> Optional[WorkerPool]:
    """``pool`` when it can run jobs over ``graph``, else ``None``.

    A closed pool, or one bound to a different graph, is ignored rather
    than trusted: its workers would fail, or silently search the wrong
    topology.
    """
    if pool is None or pool.closed or not pool.matches(graph):
        return None
    return pool


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

    :meth:`run` takes every job of the query at once and starts one
    leader per distinct memo key, in CTP order — the order the serial
    deadline ledger is defined against — whatever executes them.  Outcomes
    are keyed by CTP index and the memo is replayed in CTP order, so
    completion order never shows.

    ``watchdog`` (pool executor only) is a wall-clock budget for the whole
    dispatch.  Blowing it raises :class:`~repro.errors.WorkerHangError` —
    a worker that cannot even return a ``timed_out`` partial result inside
    its own budget plus grace is wedged, and waiting longer would hold the
    dispatch forever.  ``shutdown`` releases the executor when :meth:`run`
    ends; on an error queued jobs are dropped without waiting (a sibling
    job failed — nobody will read them).
    """

    def __init__(
        self,
        context: Optional[SearchContext],
        ledger: DeadlineLedger,
        start: Callable[[CTPJob], "Future[Tuple[CTPResultSet, float]]"],
        mode: str,
        shutdown: Optional[Callable[..., None]] = None,
        watchdog: Optional[float] = None,
    ) -> None:
        self.context = context
        self.ledger = ledger
        self.mode = mode
        self._start_one = start
        self._shutdown = shutdown
        self._watchdog = watchdog
        self._outcomes: Dict[int, CTPOutcome] = {}
        #: leader future -> [leader, followers still waiting on it...].
        self._running: Dict["Future[Any]", List[CTPJob]] = {}
        self._reruns: List[Tuple[CTPJob, "Future[Any]"]] = []
        #: CTP indices that rode an in-flight leader (they register their
        #: memo hit during the replay, not when they are served).
        self.followers: List[int] = []

    def _start(self, job: CTPJob) -> "Future[Any]":
        future = self._start_one(job)
        # Settled where the run ends, not when run() collects it: under the
        # inline executor the next job's grant must already see this one
        # gone.  The callback holds the ledger, not this dispatch: through
        # ``self`` it would close a cycle with ``_running`` and leave every
        # query's result sets to the cyclic collector.
        settle, index = self.ledger.settle, job.index
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
            self.ledger.settle(job.index)
        else:
            # Re-run at once, so the rerun overlaps still-running leaders
            # instead of queueing behind the slowest one.
            self._reruns.append((job, self._start(job)))

    def run(self, jobs: Sequence[CTPJob]) -> List[CTPOutcome]:
        """Serve, dedup, run and settle ``jobs``; replay the memo in CTP order."""
        failed = True
        try:
            outcomes = self._run(jobs)
            failed = False
            return outcomes
        finally:
            if self._shutdown is not None:
                self._shutdown(wait=not failed, cancel_futures=failed)

    def _run(self, jobs: Sequence[CTPJob]) -> List[CTPOutcome]:
        expires = None if self._watchdog is None else time.monotonic() + self._watchdog
        context, outcomes = self.context, self._outcomes
        groups: Dict[Hashable, List[CTPJob]] = {}
        for job in jobs:
            key = job.memo_key
            if key is None:
                groups[("__unkeyed__", job.index)] = [job]
            elif key in groups:
                groups[key].append(job)
            else:
                cached = context.memo_get(key) if context is not None else None
                if cached is None:
                    groups[key] = [job]
                else:
                    outcomes[job.index] = CTPOutcome(cached, True, 0.0, "memo")
                    self.ledger.settle(job.index)
        started = []
        for group in groups.values():  # every leader first, then the riders
            future = self._start(group[0])
            self._running[future] = [group[0]]
            started.append((future, group[1:]))
        for future, riders in started:
            for job in riders:
                self._follow(job, future)

        # Leaders settle as they finish, not in start order, and the
        # completion order never shows: outcomes are keyed by CTP index.
        def remaining() -> Optional[float]:
            return None if expires is None else max(1e-3, expires - time.monotonic())

        try:
            for future in as_completed(list(self._running), timeout=remaining()):
                leader, *waiting = self._running[future]
                result_set, seconds = future.result()
                outcomes[leader.index] = CTPOutcome(result_set, False, seconds, self.mode)
                for job in waiting:
                    self._share(job, result_set)
            for job, future in self._reruns:
                result_set, seconds = future.result(timeout=remaining())
                outcomes[job.index] = CTPOutcome(result_set, False, seconds, self.mode)
        except TimeoutError as error:
            raise WorkerHangError(
                f"dispatch of {len(self._running) + len(self._reruns)} CTP job(s) exceeded "
                f"its {self._watchdog}s hang watchdog"
            ) from error
        in_order = sorted(jobs, key=lambda job: job.index)
        if context is not None:
            self._replay(in_order, context)
        return [outcomes[job.index] for job in in_order]

    def _replay(self, jobs: Sequence[CTPJob], context: SearchContext) -> None:
        """Replay the serial loop's cache traffic in CTP order.

        Followers register the hit they would have had; everything else
        that is replayable is filed — a leader's fresh result, a re-run
        follower's, and (a recency refresh only: the same object under its
        key) the set a job was served from the memo.  Running this after
        every job settled keeps the memo's LRU order, and therefore its
        eviction choices, independent of worker scheduling.
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
    ledger: DeadlineLedger,
    mode: str = "serial",
) -> Dispatch:
    """A :class:`Dispatch` that runs every job inline, on the calling
    thread, in CTP order, stamped ``mode``."""
    algo = get_algorithm(algorithm)
    executor = InlineExecutor()

    def run_one(job: CTPJob) -> Tuple[CTPResultSet, float]:
        # The deadline-budget grant is read at execution start: a job
        # picks up whatever budget the jobs before it left unspent.
        config = ledger.config_for(job)
        started = time.perf_counter()
        result_set = algo.run(graph, job.seed_sets, config, context=context)
        return result_set, time.perf_counter() - started

    return Dispatch(context, ledger, lambda job: executor.submit(run_one, job), mode)


def open_dispatch(
    graph: Graph,
    algorithm: str,
    context: Optional[SearchContext],
    num_jobs: int,
    ledger: DeadlineLedger,
    pool: Optional[WorkerPool] = None,
    report: Optional[ResilienceReport] = None,
) -> Any:
    """What runs a query of ``num_jobs`` CTPs; returns an object whose
    ``run(jobs)`` gives one :class:`CTPOutcome` per job, in CTP order.

    One rule.  A ``pool`` that can serve ``graph`` (:func:`serving_pool`)
    runs every job — even a single one: a warm worker beats any spin-up —
    under the failure policy of :class:`_PooledDispatch`, whose fallback is
    the inline loop.  Without one the jobs run inline, on the calling
    thread.  ``ledger`` grants each job its budget as it starts
    (``DeadlineLedger()`` runs every job with its config as built);
    ``report`` collects what resilience machinery fired around the pool.
    """
    pool = serving_pool(pool, graph)
    if pool is not None and num_jobs:
        report = report if report is not None else ResilienceReport()
        return _PooledDispatch(pool, graph, algorithm, context, report, ledger)
    return _local_dispatch(graph, algorithm, context, ledger)


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
#: overlay is kept — serving flights at one generation reuse it without
#: decoding the shipped bytes again; a new generation replaces it.
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


def _worker_state_for(
    delta: Optional[EncodedDelta], base: Any
) -> Tuple[Any, Optional[SearchContext]]:
    """The (graph, context) a worker job evaluates against.

    ``base`` is the (snapshot path, base generation) the job was resolved
    against (``None``: whatever the worker maps).  A worker mapping another
    base maps the named one.  The pool unlinks a superseded file at once,
    so a base the worker no longer maps and cannot map raises the typed
    :class:`~repro.errors.StaleViewError`: the dispatch serves the pinned
    generation in-process, exactly as when ``prepare_for`` itself finds
    the view stale.

    ``delta=None`` is the base-only fast path: the mmap-loaded snapshot
    and the long-lived worker context.  An
    :class:`~repro.graph.delta.EncodedDelta` selects the overlay for its
    key, decoding and building it only when the key differs from the one
    held — once, however many jobs in a row ship that generation.  The base
    stays loaded, the delta is applied on top, and the overlay gets its
    own context so generation-scoped cache state never mixes with the
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
    if _worker_overlay_key != delta.key:
        try:
            _worker_overlay = OverlayGraph(_worker_graph, delta.decode())
        except GraphError as error:
            raise StaleViewError(f"worker base moved past the pinned view: {error}") from error
        _worker_overlay_context = SearchContext()
        _worker_overlay_key = delta.key
    return _worker_overlay, _worker_overlay_context


def _process_worker_run(
    algorithm: str,
    seed_sets: List[Any],
    config: SearchConfig,
    delta: Optional[EncodedDelta] = None,
    base: Any = None,
) -> Tuple[CTPResultSet, float]:
    """Evaluate one CTP inside a worker against the worker's graph/context.

    ``base`` and ``delta`` (the delta's bytes, encoded once per generation
    and shipped with every job) name the snapshot the parent resolved and
    the overlay over it, so the evaluation sees the exact generation the
    parent pinned — without re-serializing the graph.
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


def _jobs_picklable(
    algorithm: str, jobs: Sequence[CTPJob], delta: Optional[GraphDelta] = None
) -> bool:
    """Pre-flight: can every job (and its delta, if any) cross a process boundary?

    A ``SearchConfig`` carrying a lambda/closure score function (or seed
    values pickle refuses) cannot be shipped to a worker — nor can a delta
    whose appended nodes/edges carry unpicklable properties; detecting
    that up front lets dispatch degrade gracefully instead of raising
    from deep inside the executor machinery.  The delta is not pickled
    again here: :meth:`~repro.graph.delta.GraphDelta.encode` runs once per
    generation, and every job of this and later fan-outs at that
    generation ships the bytes it kept.
    """
    try:
        if delta is not None:
            delta.encode()
        pickle.dumps((algorithm, [(job.seed_sets, job.config) for job in jobs]))
        return True
    except (pickle.PicklingError, TypeError, AttributeError):
        return False


#: What a pooled fan-out raises when the pool, not the workload, failed: a
#: dead worker, a blown hang watchdog, or the OS refusing a process or a
#: pipe.  Each is answered by running the fan-out inline; a deterministic
#: evaluation error (a raising scorer) is not in it, because it would fail
#: the same way anywhere.
POOL_FAILURES = (BrokenProcessPool, WorkerHangError, OSError)


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
    """The failure rule around the pool executor, applied once.

    :meth:`run` is a :class:`Dispatch` whose ``start`` ships a job to the
    pool's long-lived workers, with one answer for every way that can
    fail.  Each CTP search is a deterministic function of (graph, seeds,
    config), so a fan-out the pool did not finish can always be run again
    in-process and give the same rows:

    * Every fan-out runs under a **hang watchdog** derived from the jobs'
      CTP timeouts (:func:`_watchdog_budget`).
    * A pool failure (:data:`POOL_FAILURES`: ``BrokenProcessPool``, a
      blown watchdog, ``OSError``) tears the executor down at once —
      killing the workers on a hang, so a wedged worker does not keep its
      CPU — counts the respawn (and the hang), and runs the fan-out
      inline.  The next dispatch rebuilds the workers
      (:meth:`~repro.query.pool.WorkerPool._resolve`); nothing is retried
      and nothing sleeps.
    * A pool that cannot be prepared (closed under us, a snapshot that
      cannot be written), a workload that cannot cross the process
      boundary, and a view the workers' base has moved past
      (:class:`~repro.errors.StaleViewError`, from ``prepare_for`` or from
      a worker that cannot map the base the job names) run inline too,
      with no respawn: the workers are not at fault.

    Every inline run is stamped ``"process->serial"``.  A deadline ledger
    cut for the pool's concurrent slots is re-cut for one slot first
    (:meth:`~repro.query.costmodel.DeadlineLedger.recut_serial`): the
    jobs now run back to back, and their budgets must still sum to the
    deadline.  Deterministic evaluation errors (a raising scorer)
    propagate as typed errors, because running them elsewhere would just
    fail again — or worse, mask a real bug.
    """

    pool: WorkerPool
    graph: Graph
    algorithm: str
    context: Optional[SearchContext]
    report: ResilienceReport
    ledger: DeadlineLedger

    def _degraded(self, jobs: Sequence[CTPJob]) -> List[CTPOutcome]:
        """Give up on the pool: run inline, stamping the hop."""
        self.report.degraded_to = "serial"
        self.ledger.recut_serial(jobs)
        return _local_dispatch(
            self.graph, self.algorithm, self.context, self.ledger, "process->serial"
        ).run(jobs)

    def run(self, jobs: Sequence[CTPJob]) -> List[CTPOutcome]:
        pool = self.pool
        try:
            resolved = pool._resolve(self.graph)
        except (ReproError, OSError, pickle.PicklingError, TypeError, AttributeError):
            # A stale pinned view, a closed pool or a snapshot that cannot
            # be written: serve the view in-process.
            return self._degraded(jobs)
        if not _jobs_picklable(self.algorithm, jobs, resolved.delta):
            return self._degraded(jobs)

        def ship(job: CTPJob) -> "Future[Any]":
            # A process job's grant is read at submit time (the worker
            # cannot reach the parent's ledger); the shipped config
            # carries it, and `resolved` the base the job reads.
            config = self.ledger.config_for(job)
            return pool.submit(self.algorithm, job.seed_sets, config, delta=resolved)

        try:
            return Dispatch(
                self.context, self.ledger, ship, "process",
                watchdog=_watchdog_budget(jobs, pool),
            ).run(jobs)
        except StaleViewError:
            return self._degraded(jobs)
        except POOL_FAILURES as error:
            hung = isinstance(error, WorkerHangError)
            self.report.hangs += hung
            try:
                pool.respawn(kill=hung)
                self.report.respawns += 1
            except PoolClosedError:
                pass  # closed under us: there is nothing left to rebuild
            return self._degraded(jobs)


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
    query's CTPs run in ``pool`` when one is given, otherwise inline), but
    they all adopt the same context — a CONNECT one query evaluated is
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
    one is created per call.  Only the calling thread touches it: pool
    workers keep contexts of their own.

    ``pool`` is the process-side analogue: a persistent
    :class:`~repro.query.pool.WorkerPool` runs every query's CTPs in the
    same long-lived workers, so the batch pays executor spin-up and
    per-worker snapshot loads once.
    """
    from repro.query.evaluator import evaluate_query  # local: evaluator imports us

    base_config = base_config or SearchConfig()
    if context is None:
        context = SearchContext()
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
