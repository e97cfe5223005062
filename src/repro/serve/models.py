"""Typed request/response envelopes of the query server.

Plain dataclasses (no web framework, no serialization dependency): the
server is an in-process library component — N client threads calling
:meth:`~repro.serve.server.QueryServer.handle` — and a transport layer
(HTTP, socket) would marshal these envelopes without changing them.  The
fields mirror what a multi-user deployment actually varies per request:
the EQL text, the algorithm, a handful of search filters, a wall-clock
deadline, and result pagination.  Everything else (the graph, the worker
pool, the shared caches) is server state, deliberately *not* reachable
from a request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ValidationError

#: Request was evaluated; ``rows`` hold the (paginated) answer.
STATUS_OK = "ok"
#: Admission control refused the request (queue full); nothing ran.
STATUS_REJECTED = "rejected"
#: Load shedding refused the request: the server is under pressure and
#: the request's priority lost the triage (low-priority work is turned
#: away *before* the queue is hard-full, so high-priority requests still
#: find a slot).  Nothing ran; clients should back off, not fast-retry.
STATUS_SHED = "shed"
#: The request's deadline had already elapsed before evaluation started;
#: nothing ran.  (A deadline that truncates a *running* evaluation still
#: returns ``STATUS_OK`` with the honest partial rows and
#: ``stats.deadline_truncated`` set.)
STATUS_EXPIRED = "expired"
#: Evaluation failed (parse error, bad config, unknown score...).
STATUS_ERROR = "error"

#: Request priorities (:attr:`QueryRequest.priority`).  Under pressure the
#: server sheds ``PRIORITY_LOW`` work first; ``PRIORITY_HIGH`` is only
#: refused when the queue is hard-full.
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2


@dataclass(frozen=True)
class QueryRequest:
    """One client query: EQL text plus per-request knobs.

    Parameters
    ----------
    query:
        EQL text (``SELECT ... WHERE { ... }``).
    algorithm:
        CTP algorithm name for this request; ``None`` uses the server's
        default.  Validated against the registry at admission, so a typo
        is a typed error response, not a worker-side crash.
    timeout:
        Per-CTP budget in seconds (the paper's ``T``); ``None`` inherits
        the server default.
    deadline:
        Whole-query wall-clock budget in seconds, measured from the moment
        the server starts evaluating: every CTP's effective timeout is
        capped to the remaining budget, and a request whose deadline is
        already spent (``<= 0`` after queueing) receives ``STATUS_EXPIRED``
        without running.  ``None`` inherits the server default.
    limit / offset:
        Row pagination applied to the final answer (after the query's own
        ``LIMIT``, if any): ``rows[offset : offset + limit]``.
        ``total_rows`` on the response always reports the pre-pagination
        count.
    uni / labels / max_edges / score / top_k:
        Per-request overrides of the corresponding search filters
        (:class:`~repro.ctp.config.SearchConfig`); ``None`` inherits the
        server's base config.  ``score`` is a *registered score-function
        name* (``repro.query.scoring``) — requests cross thread and
        process boundaries, so they carry names, never callables.
    distinct:
        Whether the final projection deduplicates rows (default, EQL
        semantics).
    priority:
        Admission priority (:data:`PRIORITY_LOW` / :data:`PRIORITY_NORMAL`
        / :data:`PRIORITY_HIGH`).  Under load-shedding pressure the server
        refuses low-priority requests (``STATUS_SHED``) while slots
        remain for normal/high work; priorities never reorder requests
        already admitted.
    tag:
        Opaque client correlation value, echoed on the response.
    """

    query: str
    algorithm: Optional[str] = None
    timeout: Optional[float] = None
    deadline: Optional[float] = None
    limit: Optional[int] = None
    offset: int = 0
    uni: Optional[bool] = None
    labels: Optional[FrozenSet[str]] = None
    max_edges: Optional[int] = None
    score: Optional[str] = None
    top_k: Optional[int] = None
    distinct: bool = True
    priority: int = PRIORITY_NORMAL
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.query, str) or not self.query.strip():
            raise ValidationError("QueryRequest.query must be non-empty EQL text")
        if self.limit is not None and self.limit < 0:
            raise ValidationError("QueryRequest.limit must be >= 0 (or None for all rows)")
        if self.offset < 0:
            raise ValidationError("QueryRequest.offset must be >= 0")
        if self.priority not in (PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH):
            raise ValidationError(
                f"QueryRequest.priority must be one of {PRIORITY_LOW}/{PRIORITY_NORMAL}/"
                f"{PRIORITY_HIGH}, got {self.priority!r}"
            )
        if self.labels is not None:
            object.__setattr__(self, "labels", frozenset(self.labels))


@dataclass
class ResponseStats:
    """Where the answer came from — the amortization evidence, per response.

    ``warm_pool`` reports whether the worker pool was already warm (live,
    snapshot-loaded workers) *before* this request: the first request a
    server ever serves is cold by definition, everything after should be
    warm — the bench asserts exactly that.  ``memo_hits`` counts CTPs
    served from the shared cross-CTP/cross-request memo without running a
    search; ``dispatch_modes`` records what actually executed each CTP
    ("process" from a pool worker, "memo", or a degraded mode).
    """

    warm_pool: bool = False
    memo_hits: int = 0
    ctp_count: int = 0
    dispatch_modes: List[str] = field(default_factory=list)
    deadline_truncated: bool = False
    pool_dispatches: int = 0
    pool_respawns: int = 0
    pending: int = 0
    seconds: float = 0.0
    #: Resilience telemetry for THIS request: pooled fan-outs re-run
    #: after a crash/hang, and hang-watchdog kills it triggered.
    retries: int = 0
    hangs: int = 0
    #: Pool-level state as of this response: the circuit breaker's state
    #: ("closed"/"open"/"half_open") and the lifetime count of workers
    #: proactively recycled (request-count or RSS threshold).
    breaker_state: str = "closed"
    recycled_workers: int = 0
    #: MVCC view telemetry: the graph generation this response's rows are
    #: consistent with (rows match a full freeze at this generation), the
    #: size of the mutable delta overlay at evaluation time, and the
    #: pool's lifetime compaction/avoided-resnapshot/thrash counters.
    generation: Optional[int] = None
    delta_size: int = 0
    compactions: int = 0
    resnapshots_avoided: int = 0
    resnapshot_thrash: int = 0
    #: Cost-model scheduling telemetry
    #: (:meth:`repro.query.costmodel.ScheduleReport.as_dict`): per-CTP
    #: estimates vs. actual seconds, submission order, rebalance counters,
    #: pipeline overlap, and the dispatch mode the cost model selected.
    schedule: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class IngestRequest:
    """One write batch: nodes and edges to append, weights to update.

    Applied atomically with respect to query admission: a query pinned
    concurrently with an ingest sees either none or all of the batch
    (never a torn prefix), and its response records the generation it
    saw.  Fields carry plain tuples — like :class:`QueryRequest`, ingest
    envelopes cross thread boundaries and stay cheaply hashable/loggable.

    Parameters
    ----------
    nodes:
        ``(label, node_type)`` pairs to append; ids are assigned densely
        and reported on the result in order.  ``node_type`` may be ``""``
        for an untyped node.
    edges:
        ``(source, target, label, weight)`` tuples to append.  Sources /
        targets may reference nodes added earlier *in this same batch*
        by their future ids (existing ``num_nodes`` + batch offset).
    weights:
        ``(edge_id, new_weight)`` updates to existing edges — the one
        in-place mutation the model supports.
    tag:
        Opaque client correlation value, echoed on the result.
    """

    nodes: Tuple[Tuple[str, str], ...] = ()
    edges: Tuple[Tuple[int, int, str, float], ...] = ()
    weights: Tuple[Tuple[int, float], ...] = ()
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if not (self.nodes or self.edges or self.weights):
            raise ValidationError("IngestRequest must carry at least one mutation")
        object.__setattr__(self, "nodes", tuple(tuple(n) for n in self.nodes))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "weights", tuple(tuple(w) for w in self.weights))
        for node in self.nodes:
            if len(node) != 2:
                raise ValidationError(f"IngestRequest nodes must be (label, type) pairs, got {node!r}")
        for edge in self.edges:
            if len(edge) != 4:
                raise ValidationError(
                    f"IngestRequest edges must be (source, target, label, weight) tuples, got {edge!r}"
                )
        for update in self.weights:
            if len(update) != 2:
                raise ValidationError(
                    f"IngestRequest weights must be (edge_id, weight) pairs, got {update!r}"
                )


@dataclass
class IngestResult:
    """What one ingest batch produced: new ids and the resulting generation."""

    status: str
    node_ids: Tuple[int, ...] = ()
    edge_ids: Tuple[int, ...] = ()
    #: Graph generation after the batch (queries pinned at or after this
    #: generation observe the batch).
    generation: int = 0
    #: Delta-overlay size after the batch — how far the graph has drifted
    #: from its frozen base (compaction resets this to 0).
    delta_size: int = 0
    error: Optional[str] = None
    tag: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class QueryResponse:
    """What the server hands back for one request, whatever happened.

    Exactly one of the four statuses; ``rows`` are only meaningful under
    ``STATUS_OK`` — check ``stats.deadline_truncated`` to learn whether a
    deadline cut the evaluation short (the rows are then the honest
    partial answer, never silently presented as complete).
    """

    status: str
    columns: Tuple[str, ...] = ()
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    total_rows: int = 0
    error: Optional[str] = None
    stats: Optional[ResponseStats] = None
    tag: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (rows stringified — ResultTree values are not
        JSON-native); transports and the bench harness use this."""
        return {
            "status": self.status,
            "columns": list(self.columns),
            "rows": [[repr(value) for value in row] for row in self.rows],
            "total_rows": self.total_rows,
            "error": self.error,
            "tag": self.tag,
        }
