"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything produced by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class GraphError(ReproError):
    """Raised for malformed graph operations (unknown nodes, bad edges...)."""


class SnapshotError(GraphError):
    """Raised when a binary CSR snapshot cannot be read or written.

    Covers bad magic, format-version mismatches, truncated or corrupt
    files, and byte-order mismatches (:mod:`repro.graph.snapshot`).
    """


class StorageError(ReproError):
    """Raised by the relational substrate (schema mismatches, bad joins)."""


class QueryError(ReproError):
    """Base class for query-related errors."""


class ParseError(QueryError):
    """Raised when EQL text cannot be parsed.

    Carries the position of the offending token to help users fix queries.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1):
        self.position = position
        self.line = line
        suffix = ""
        if line >= 0:
            suffix = f" (line {line})"
        elif position >= 0:
            suffix = f" (at offset {position})"
        super().__init__(message + suffix)


class ValidationError(QueryError):
    """Raised when a syntactically valid query violates EQL well-formedness.

    Examples: a CTP tree variable used twice (Def 2.6), a disconnected BGP
    (Def 2.4), or a predicate over several variables (Def 2.2).
    """


class EvaluationError(QueryError):
    """Raised when query evaluation fails for semantic reasons."""


class SearchError(ReproError):
    """Raised for invalid CTP search configurations."""


class ConfigError(SearchError, ValueError):
    """Raised when a :class:`~repro.ctp.config.SearchConfig` is invalid.

    Subclasses :class:`ValueError` as well so historical ``except
    ValueError`` call sites keep working, but carries the library
    hierarchy (``ReproError`` -> ``SearchError``) so the CLI and servers
    can surface it as a user error instead of a crash.
    """


class PoolError(ReproError):
    """Raised for invalid worker-pool operations (:mod:`repro.query.pool`).

    Examples: submitting to a closed :class:`~repro.query.pool.WorkerPool`,
    or constructing one with a non-positive worker count.
    """


class PoolClosedError(PoolError):
    """Raised by :meth:`WorkerPool.submit`/`ping`/`respawn` after ``close()``.

    A typed, stable signal that the pool's lifecycle is over — callers used
    to see whatever the torn-down executor happened to throw.  The CLI
    surfaces it as a user-facing error line, and the dispatch layer treats
    it as "degrade without the pool", never as a worker crash to recover.
    """


class WorkerHangError(PoolError):
    """Raised when a pooled CTP evaluation blows its hang watchdog.

    The watchdog is derived from the CTP timeouts of the dispatched jobs
    (plus a grace period): a worker that does not answer inside it is
    presumed wedged — stuck in native code, a pathological scorer, an
    injected fault — and is killed rather than awaited forever.  The
    evaluation is deterministic, so the dispatch layer runs the fan-out
    inline, and the next dispatch spawns fresh workers.
    """


class StaleViewError(PoolError):
    """Raised when a pinned graph view predates the pool's base snapshot.

    MVCC generations (:mod:`repro.graph.delta`): a dispatch over an
    :class:`~repro.graph.delta.OverlayGraph` ships only the view's delta
    to the pooled workers, which apply it on top of their mmap-loaded
    base.  If the source graph compacted past the view's base generation
    and its file is gone, a worker not mapping it cannot serve the view
    consistently — the dispatch layer degrades to inline (which reads
    the pinned view directly) and leaves the workers up: an outdated
    reader is not a pool failure.
    """


class FaultInjected(ReproError):
    """Raised by :mod:`repro.faults` machinery inside a fault-injected run.

    Only ever raised when a test/bench installed a
    :class:`~repro.faults.FaultPlan` (e.g. the ``scorer`` fault raises it
    from inside a score callable mid-search).  Deterministic user-code
    failures are *not* pool failures — the error must surface to the
    caller as a typed error, never be papered over by an inline re-run
    that happens to miss the injection.
    """


class AdmissionError(PoolError):
    """Raised when a query server refuses a request up front.

    Admission control (:mod:`repro.serve`): the bounded queue is full or
    the request's deadline already expired before evaluation could start.
    Servers normally convert this into a typed rejection response; it is
    only *raised* by the lower-level hooks.
    """


class WorkloadError(ReproError):
    """Raised for invalid workload-generator parameters."""
