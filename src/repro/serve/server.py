"""The long-lived query server: one graph, one warm pool, many requests.

This is the serving front-end ROADMAP.md's "persistent worker pools" item
asks for, and the shape the paper's integrated evaluator implies — a
journalist's investigation is *sessions* of queries against one graph
(Section 5's workloads re-run CONNECTs with varied filters), not a
process per query.  :class:`QueryServer` owns the state every request
shares:

* a :class:`~repro.query.pool.WorkerPool` — workers spawn once, load the
  mmap-shared snapshot once, and keep their per-worker contexts warm
  across requests (the amortization fix this PR exists for);
* a thread-safe :class:`~repro.ctp.context.SearchContext` — the
  cross-CTP memo and interning pool span *requests*, so a CONNECT one
  client evaluated is a memo hit for every later client that repeats it;
* admission control — a bounded in-flight budget (``max_pending``):
  request N+1 gets a typed ``STATUS_REJECTED`` response immediately
  instead of queueing without bound while every caller's deadline rots.

:meth:`QueryServer.handle` is synchronous and thread-safe: a transport
layer runs it from N client threads.  Per-request deadlines are enforced
in two places — an already-expired deadline is refused up front
(``STATUS_EXPIRED``, nothing runs), and a live one is split across the
request's CTPs in cost-proportional shares
(:class:`repro.query.costmodel.DeadlineLedger`), so one expensive CONNECT
cannot eat the whole query's allowance and k of them cannot spend k
deadlines.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.ctp.config import SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.registry import get_algorithm
from repro.errors import ReproError
from repro.query.evaluator import evaluate_query
from repro.query.pool import WorkerPool
from repro.query.scoring import get_score_function
from repro.serve.models import (
    PRIORITY_LOW,
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_SHED,
    IngestRequest,
    IngestResult,
    QueryRequest,
    QueryResponse,
    ResponseStats,
)

#: How the server executes each request's CTPs: ``"process"`` routes
#: through the persistent :class:`~repro.query.pool.WorkerPool` (the
#: default, and the only mode that pays a snapshot), ``"thread"`` uses
#: in-process thread dispatch, ``"serial"`` runs CTPs one at a time on
#: the handling thread.  All three pin the same MVCC read view, so the
#: consistency contract is identical.
DISPATCH_MODES = ("process", "thread", "serial")


class QueryServer:
    """Serve EQL queries against one graph from persistent workers.

    Parameters
    ----------
    graph:
        The graph every request runs against.
    algorithm:
        Default CTP algorithm (requests may override per call).
    base_config:
        Base :class:`SearchConfig` requests inherit from; the server
        normalizes its ``parallelism_mode`` / ``parallelism`` to
        ``dispatch_mode``.  Defaults to one worker per core.
    workers:
        Worker process count for the pool (default: ``os.cpu_count()``).
    max_pending:
        In-flight request budget.  ``handle`` admits at most this many
        concurrent evaluations; the rest are rejected immediately with
        ``STATUS_REJECTED`` — bounded latency beats an unbounded queue
        whose tail requests all miss their deadlines anyway.
    shed_threshold:
        Load-shedding watermark (default: half of ``max_pending``).  Once
        this many requests are in flight, new ``PRIORITY_LOW`` requests
        receive ``STATUS_SHED`` instead of competing for the remaining
        slots — under pressure, background work is turned away *first*,
        so interactive traffic still finds capacity instead of losing a
        FIFO race to a bulk scan.  Normal/high-priority requests are only
        refused when the queue is hard-full.
    default_deadline / default_timeout:
        Applied when a request does not carry its own.
    pool_config:
        Extra keyword arguments for the server's
        :class:`~repro.query.pool.WorkerPool` — ``resilience``
        (:class:`~repro.query.resilience.PoolResilienceConfig`: recycling
        thresholds, hang watchdog budgets), ``retry_policy``, ``breaker``.
    dispatch_mode:
        How CTPs execute (:data:`DISPATCH_MODES`): ``"process"`` (the
        default — persistent worker pool, mmap snapshot), ``"thread"``
        (in-process threads, no pool), or ``"serial"`` (one CTP at a
        time on the handling thread).  All three pin the same MVCC read
        view per request, so :meth:`ingest` is safe under any of them.
    compaction_threshold:
        Delta-overlay mutations tolerated before base ∪ delta is
        refrozen into a fresh base snapshot (``None`` = never compact,
        ``0`` = compact on any mutation, i.e. the legacy
        resnapshot-per-mutation behavior).  Under process dispatch the
        worker pool compacts at its dispatch boundary; under
        thread/serial dispatch :meth:`ingest` compacts inline.

    Use as a context manager (or call :meth:`close`): the pool holds OS
    processes and a temp snapshot file, which should die with the server,
    not with the interpreter.  For an orderly shutdown under traffic,
    call :meth:`drain` first — it stops admissions, lets in-flight
    requests finish, then closes.
    """

    def __init__(
        self,
        graph: Any,
        algorithm: str = "molesp",
        base_config: Optional[SearchConfig] = None,
        workers: Optional[int] = None,
        max_pending: int = 8,
        shed_threshold: Optional[int] = None,
        default_deadline: Optional[float] = None,
        default_timeout: Optional[float] = None,
        pool_config: Optional[Dict[str, Any]] = None,
        dispatch_mode: str = "process",
        compaction_threshold: Optional[int] = 256,
    ):
        if max_pending < 1:
            raise ReproError(f"QueryServer needs max_pending >= 1, got {max_pending}")
        if shed_threshold is not None and not 1 <= shed_threshold <= max_pending:
            raise ReproError(
                f"QueryServer needs 1 <= shed_threshold <= max_pending, got {shed_threshold}"
            )
        if dispatch_mode not in DISPATCH_MODES:
            raise ReproError(
                f"QueryServer needs dispatch_mode in {DISPATCH_MODES}, got {dispatch_mode!r}"
            )
        get_algorithm(algorithm)  # fail fast on a bad default
        self.graph = graph
        self.algorithm = algorithm
        self.dispatch_mode = dispatch_mode
        self.compaction_threshold = compaction_threshold
        base = base_config or SearchConfig()
        if dispatch_mode == "process":
            self.base_config = base.with_(parallelism_mode="process")
        elif dispatch_mode == "thread":
            self.base_config = base.with_(parallelism_mode="thread")
        else:  # serial: one CTP at a time on the handling thread
            self.base_config = base.with_(parallelism=1)
        self.default_deadline = default_deadline
        self.default_timeout = default_timeout
        self.max_pending = max_pending
        self.shed_threshold = (
            shed_threshold if shed_threshold is not None else max(1, max_pending // 2)
        )
        self.pool: Optional[WorkerPool] = None
        if dispatch_mode == "process":
            self.pool = WorkerPool(
                graph,
                workers=workers,
                compaction_threshold=compaction_threshold,
                **(pool_config or {}),
            )
        #: Shared across requests (thread-safe): cross-request memo + pool.
        self.context = SearchContext(thread_safe=True)
        self._slots = threading.BoundedSemaphore(max_pending)
        self._gauge_lock = threading.Lock()
        #: Serializes write batches against read-view pinning: a query
        #: can never pin its MVCC view between two mutations of one
        #: :meth:`ingest` batch — it sees all of the batch or none of it.
        self._ingest_lock = threading.Lock()
        self._pending = 0
        self.served = 0
        self.rejected = 0
        self.expired = 0
        self.errors = 0
        self.shed = 0
        self.ingests = 0
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> None:
        """Shut the worker pool down; later requests are rejected."""
        self._closed = True
        if self.pool is not None:
            self.pool.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight, close.

        New requests are rejected from the moment this is called;
        evaluations already admitted run to completion.  ``timeout``
        bounds the wait (seconds; ``None`` waits indefinitely).  Returns
        whether the server drained fully within the budget — either way
        the server ends up closed (a timed-out drain closes anyway:
        SIGTERM means *exit*, and the pool's shutdown cancels whatever is
        still queued).  Idempotent and safe from signal-handler context.
        """
        self._draining = True
        deadline = None if timeout is None else time.perf_counter() + timeout
        drained = True
        while True:
            with self._gauge_lock:
                if self._pending == 0:
                    break
            if deadline is not None and time.perf_counter() >= deadline:
                drained = False
                break
            time.sleep(0.01)
        self.close()
        return drained

    def prewarm(self) -> bool:
        """Spawn the workers and load the snapshot *before* traffic.

        Returns the pool's health verdict; a server started during
        deployment can pay the cold cost off the request path.
        """
        if self.pool is None:
            # Thread/serial dispatch: the only cold cost is the base freeze.
            if hasattr(self.graph, "ensure_base"):
                self.graph.ensure_base()
            return True
        self.pool.prepare()
        return self.pool.healthy()

    # ------------------------------------------------------------------
    # ingest (writes under live traffic)
    # ------------------------------------------------------------------
    def ingest(self, request: IngestRequest) -> IngestResult:
        """Apply one write batch; always returns a result, never raises.

        Thread-safe, and atomic with respect to query admission: the
        batch is validated up front and applied under the ingest lock, so
        a concurrent query's pinned view observes either the whole batch
        or none of it.  Queries already running are untouched — they keep
        reading their pinned generation (MVCC), and the next dispatch
        ships the enlarged delta to the pool's workers without respawning
        them.  Under thread/serial dispatch the server itself compacts
        the overlay once it outgrows ``compaction_threshold`` (the worker
        pool owns that decision under process dispatch, at its own
        dispatch boundary).
        """
        if self._closed or self._draining:
            reason = "server is draining" if self._draining and not self._closed else "server is closed"
            return IngestResult(status=STATUS_REJECTED, error=reason, tag=request.tag)
        try:
            with self._ingest_lock:
                # Validate the whole batch against the post-batch id space
                # BEFORE mutating: all-or-nothing, no torn prefixes.
                total_nodes = self.graph.num_nodes + len(request.nodes)
                total_edges = self.graph.num_edges + len(request.edges)
                for source, target, _label, _weight in request.edges:
                    if not (0 <= source < total_nodes and 0 <= target < total_nodes):
                        raise ReproError(
                            f"ingest edge ({source}, {target}) references a node id "
                            f"outside [0, {total_nodes}) (existing nodes + this batch)"
                        )
                for edge_id, _weight in request.weights:
                    if not 0 <= edge_id < total_edges:
                        raise ReproError(
                            f"ingest weight update targets edge {edge_id}, outside "
                            f"[0, {total_edges}) (existing edges + this batch)"
                        )
                node_ids = tuple(
                    self.graph.add_node(label, types=(node_type,) if node_type else ())
                    for label, node_type in request.nodes
                )
                edge_ids = tuple(
                    self.graph.add_edge(source, target, label, weight)
                    for source, target, label, weight in request.edges
                )
                for edge_id, weight in request.weights:
                    self.graph.set_edge_weight(edge_id, weight)
                if (
                    self.pool is None
                    and self.compaction_threshold is not None
                    and getattr(self.graph, "delta_size", 0) > self.compaction_threshold
                ):
                    self.graph.compact()
                generation = self.graph.generation
                delta_size = getattr(self.graph, "delta_size", 0)
        except ReproError as error:
            with self._gauge_lock:
                self.errors += 1
            return IngestResult(status=STATUS_ERROR, error=str(error), tag=request.tag)
        with self._gauge_lock:
            self.ingests += 1
        return IngestResult(
            status=STATUS_OK,
            node_ids=node_ids,
            edge_ids=edge_ids,
            generation=generation,
            delta_size=delta_size,
            tag=request.tag,
        )

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _config_for(self, request: QueryRequest) -> SearchConfig:
        """The request's effective search config (may raise ``ReproError``)."""
        changes: Dict[str, Any] = {}
        if request.timeout is not None:
            changes["timeout"] = request.timeout
        deadline = request.deadline if request.deadline is not None else self.default_deadline
        if deadline is not None:
            changes["deadline"] = deadline
        if request.uni is not None:
            changes["uni"] = request.uni
        if request.labels is not None:
            changes["labels"] = request.labels
        if request.max_edges is not None:
            changes["max_edges"] = request.max_edges
        if request.score is not None:
            changes["score"] = get_score_function(request.score)
        if request.top_k is not None:
            changes["top_k"] = request.top_k
        return self.base_config.with_(**changes) if changes else self.base_config

    def handle(self, request: QueryRequest) -> QueryResponse:
        """Evaluate one request; always returns a response, never raises.

        Thread-safe.  The admission check is non-blocking by design: a
        full server answers *now* with ``STATUS_REJECTED`` so the client
        can back off or retry elsewhere, instead of holding its deadline
        hostage in an invisible queue.  Under pressure (in-flight count
        at or past ``shed_threshold``) low-priority requests are shed
        before the queue hard-fills, so normal/high-priority work keeps
        finding slots.
        """
        if self._closed or self._draining:
            with self._gauge_lock:
                self.rejected += 1
            reason = "server is draining" if self._draining and not self._closed else "server is closed"
            return QueryResponse(status=STATUS_REJECTED, error=reason, tag=request.tag)
        if request.priority <= PRIORITY_LOW:
            with self._gauge_lock:
                under_pressure = self._pending >= self.shed_threshold
                if under_pressure:
                    self.shed += 1
            if under_pressure:
                return QueryResponse(
                    status=STATUS_SHED,
                    error=(
                        f"low-priority request shed under load "
                        f"({self.shed_threshold}+ requests in flight)"
                    ),
                    tag=request.tag,
                )
        if not self._slots.acquire(blocking=False):
            with self._gauge_lock:
                self.rejected += 1
            return QueryResponse(
                status=STATUS_REJECTED,
                error=f"server at capacity ({self.max_pending} requests in flight)",
                tag=request.tag,
            )
        with self._gauge_lock:
            self._pending += 1
            pending = self._pending
        try:
            return self._evaluate_admitted(request, pending)
        finally:
            with self._gauge_lock:
                self._pending -= 1
            self._slots.release()

    def _evaluate_admitted(self, request: QueryRequest, pending: int) -> QueryResponse:
        started = time.perf_counter()
        deadline = request.deadline if request.deadline is not None else self.default_deadline
        if deadline is not None and deadline <= 0:
            with self._gauge_lock:
                self.expired += 1
            return QueryResponse(
                status=STATUS_EXPIRED,
                error=f"deadline of {deadline}s already elapsed before evaluation",
                tag=request.tag,
            )
        # Capture warmth BEFORE evaluating: the claim is about what this
        # request found, not what it left behind.
        was_warm = self.pool.warm if self.pool is not None else False
        algorithm = request.algorithm or self.algorithm
        try:
            get_algorithm(algorithm)  # admission-time validation
            config = self._config_for(request)
            # Pin the MVCC read view under the ingest lock: the view is a
            # frozen base-∪-delta overlay (or the base itself) that no
            # concurrent ingest can mutate, so every CTP and BGP of this
            # request reads one consistent generation.
            with self._ingest_lock:
                view = self.graph.read_view() if hasattr(self.graph, "read_view") else self.graph
            result = evaluate_query(
                view,
                request.query,
                algorithm=algorithm,
                base_config=config,
                default_timeout=self.default_timeout,
                distinct=request.distinct,
                context=self.context,
                pool=self.pool,
            )
        except ReproError as error:
            with self._gauge_lock:
                self.errors += 1
            return QueryResponse(status=STATUS_ERROR, error=str(error), tag=request.tag)
        total = len(result.rows)
        end = None if request.limit is None else request.offset + request.limit
        rows = result.rows[request.offset : end]
        resilience = result.resilience
        stats = ResponseStats(
            warm_pool=was_warm,
            memo_hits=sum(1 for report in result.ctp_reports if report.cache_hit),
            ctp_count=len(result.ctp_reports),
            dispatch_modes=[report.dispatch_mode for report in result.ctp_reports],
            deadline_truncated=deadline is not None
            and any(report.result_set.timed_out for report in result.ctp_reports),
            pool_dispatches=self.pool.dispatches if self.pool is not None else 0,
            pool_respawns=self.pool.respawns if self.pool is not None else 0,
            pending=pending,
            seconds=time.perf_counter() - started,
            retries=resilience.retries if resilience is not None else 0,
            hangs=resilience.hangs if resilience is not None else 0,
            breaker_state=self.pool.breaker.state if self.pool is not None else "closed",
            recycled_workers=self.pool.recycles if self.pool is not None else 0,
            generation=result.generation,
            delta_size=getattr(self.graph, "delta_size", 0),
            compactions=(
                self.pool.compactions
                if self.pool is not None
                else getattr(self.graph, "compactions", 0)
            ),
            resnapshots_avoided=self.pool.resnapshots_avoided if self.pool is not None else 0,
            resnapshot_thrash=self.pool.resnapshot_thrash if self.pool is not None else 0,
            schedule=result.schedule.as_dict(),
        )
        with self._gauge_lock:
            self.served += 1
        return QueryResponse(
            status=STATUS_OK,
            columns=result.columns,
            rows=rows,
            total_rows=total,
            stats=stats,
            tag=request.tag,
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Server + pool + shared-context counters, one flat snapshot."""
        with self._gauge_lock:
            counters = {
                "served": self.served,
                "rejected": self.rejected,
                "expired": self.expired,
                "errors": self.errors,
                "shed": self.shed,
                "ingests": self.ingests,
                "pending": self._pending,
                "max_pending": self.max_pending,
                "shed_threshold": self.shed_threshold,
                "draining": self._draining,
                "dispatch_mode": self.dispatch_mode,
                "generation": getattr(self.graph, "generation", 0),
                "delta_size": getattr(self.graph, "delta_size", 0),
                "graph_compactions": getattr(self.graph, "compactions", 0),
            }
        counters["pool"] = self.pool.stats() if self.pool is not None else None
        counters["context"] = self.context.stats_dict()
        return counters

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"QueryServer({state}, served={self.served}, rejected={self.rejected}, "
            f"pool={self.pool!r})"
        )
