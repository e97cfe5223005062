"""Long-lived query serving on top of the persistent worker pool.

``repro.serve`` is the multi-user front-end of the evaluator: a
:class:`~repro.serve.server.QueryServer` binds one graph to one
:class:`~repro.query.pool.WorkerPool` and one shared
:class:`~repro.ctp.context.SearchContext`, then answers
:class:`~repro.serve.models.QueryRequest` envelopes from any number of
client threads — with admission control, per-request deadlines, and
per-response provenance (warm pool? memo hits? what dispatch ran?).

``python -m repro serve`` drives one from the command line;
``python -m repro.bench serve`` measures the warm-vs-cold claim.
"""

from repro.serve.models import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
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
from repro.serve.server import DISPATCH_MODES, QueryServer

__all__ = [
    "QueryServer",
    "QueryRequest",
    "QueryResponse",
    "ResponseStats",
    "IngestRequest",
    "IngestResult",
    "DISPATCH_MODES",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_HIGH",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_SHED",
    "STATUS_EXPIRED",
    "STATUS_ERROR",
]
