"""Search configuration: CTP filters (Section 2) and engine knobs.

The paper's CTP filters — ``UNI``, ``LABEL {l1..lk}``, ``MAX n``,
``SCORE sigma [TOP k]``, a per-CTP timeout, and ``LIMIT`` — are *pushed into*
the search (Section 4.8) rather than applied on materialized results, so
they all live on :class:`SearchConfig`, which every algorithm accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, FrozenSet, Optional, Union

from repro.errors import ConfigError

#: Dispatch modes accepted by ``SearchConfig.parallelism_mode``.
#: ``"auto"`` defers the choice to the cost model per query
#: (:func:`repro.query.costmodel.choose_mode`).
PARALLELISM_MODES = ("thread", "process", "auto")


class _Wildcard:
    """Sentinel for a seed set equal to all graph nodes (Section 4.9)."""

    def __repr__(self) -> str:
        return "WILDCARD"

    def __reduce__(self):
        # Pickle as a reference to the module-level singleton so identity
        # checks (``seed is WILDCARD``) survive crossing a process boundary
        # (the process-pool dispatcher ships seed sets to workers).
        return "WILDCARD"


#: Pass this instead of a node collection to make a seed set the whole of N.
WILDCARD = _Wildcard()

#: A score function maps (graph, edge_ids, node_ids) to a float; higher is
#: better (Section 2, ``SCORE sigma``).
ScoreFunction = Callable[["object", frozenset, frozenset], float]

#: Queue orders: "size" (smallest tree first — the paper's experimental
#: setting, Section 5.4) or a callable mapping a SearchTree to a sort key.
OrderSpec = Union[str, Callable]


@dataclass(frozen=True)
class SearchConfig:
    """Configuration shared by all CTP evaluation algorithms.

    Parameters
    ----------
    uni:
        Only build unidirectional trees — a result must have a node from
        which directed paths reach every seed (``UNI`` filter).
    labels:
        When set, result trees may only use edges carrying these labels
        (``LABEL`` filter).
    max_edges:
        Upper bound on the number of edges of any built tree (``MAX n``).
    timeout:
        Per-CTP evaluation budget in seconds (the paper's ``T``); ``None``
        means unbounded.
    deadline:
        Whole-*query* wall-clock budget in seconds, enforced by the
        evaluator (standalone engine runs ignore it): each CTP's effective
        ``timeout`` is its cost-proportional share of the budget
        (:class:`~repro.query.costmodel.DeadlineLedger`), re-granted
        upward at execution as cheaper CTPs finish under theirs, so the
        CTPs of a query together spend about one deadline of wall time —
        the per-query deadline discipline a serving front-end needs
        ("Complexity of Evaluating GQL Queries" motivates how wildly
        per-fragment cost varies).  Deadline-truncated result sets are
        flagged ``timed_out`` and never memoized, exactly like ``timeout``
        truncation.  ``None`` (default) means no query budget.
    limit:
        Stop after this many results have been found (the ``LIMIT`` used to
        align with QGSTP in Section 5.4.3).
    score / top_k:
        ``SCORE sigma [TOP k]``: score every result with ``score``; when
        ``top_k`` is set, retain only the k best.  ``top_k`` requires
        ``score``.
    order:
        Priority-queue order for Grow opportunities; ``"size"`` favours the
        smallest trees (paper default), ``"score"`` uses ``score`` as a
        guidance heuristic (Section 4.8), or pass a callable.
    balanced_queues:
        Section 4.9 (ii): use one priority queue per seed-coverage signature
        and always grow from the least-filled queue.  ``"auto"`` enables the
        optimization when seed set sizes are skewed by more than
        ``balance_ratio`` or a wildcard seed set is present.
    max_trees:
        Memory safety valve: abort (returning partial results) after this
        many retained trees.
    strict_merge2 (ablation):
        Use the *literal* Merge2 of Section 4.2 — ``sat(t1) ∩ sat(t2) = ∅``
        — instead of the relaxed reading this library argues for (overlap
        allowed through the shared root; the argument is in the
        :mod:`repro.ctp.engine` docstring).  With the strict
        condition GAM loses completeness on results whose internal
        branching node is a seed; exposed to make that measurable.
    mo_inject_always (ablation):
        Inject Mo copies for *every* new tree (Algorithm 3 read literally)
        instead of only when seed coverage grew (the Section 4.5 text).
        Same results, strictly more work; exposed to quantify the cost.
    parallelism:
        Evaluator-level knob (ignored by standalone engine runs): dispatch
        the independent CTP evaluations of a query to a worker pool of
        this many workers (:mod:`repro.query.parallel`; default 1 = serial
        dispatch).  Values above 1 make ``evaluate_query`` create its
        query-scoped context *thread-safe* (sharded pool, locked caches).
        Dispatch-only: result rows are bit-identical to serial evaluation
        regardless of worker count — an explicitly passed non-thread-safe
        context silently falls back to serial dispatch under thread mode.
        Must be >= 1; anything else raises :class:`~repro.errors.ConfigError`.
    parallelism_mode:
        How ``parallelism > 1`` fans out: ``"thread"`` (default) uses a
        ``ThreadPoolExecutor`` over the shared thread-safe context — wall-
        clock overlap for deadline-bounded CTPs, no extra processes;
        ``"process"`` uses a ``ProcessPoolExecutor`` whose workers each
        load the graph once from an mmap-shared CSR snapshot
        (:mod:`repro.graph.snapshot`) and evaluate CTPs on a private
        context — real multi-core overlap for CPU-bound complete searches
        under the GIL.  Rows are bit-identical to serial either way.
        ``"auto"`` lets the evaluator pick serial/thread/process per query
        from the cost model's estimated total cost vs. dispatch-overhead
        constants (:mod:`repro.query.costmodel`).
    """

    uni: bool = False
    labels: Optional[FrozenSet[str]] = None
    max_edges: Optional[int] = None
    timeout: Optional[float] = None
    deadline: Optional[float] = None
    limit: Optional[int] = None
    score: Optional[ScoreFunction] = None
    top_k: Optional[int] = None
    order: OrderSpec = "size"
    balanced_queues: Union[bool, str] = "auto"
    balance_ratio: float = 32.0
    max_trees: Optional[int] = None
    strict_merge2: bool = False
    mo_inject_always: bool = False
    parallelism: int = 1
    parallelism_mode: str = "thread"

    def __post_init__(self) -> None:
        if self.top_k is not None and self.score is None:
            raise ConfigError("top_k requires a score function (SCORE sigma TOP k)")
        if self.top_k is not None and self.top_k <= 0:
            raise ConfigError("top_k must be positive")
        if self.limit is not None and self.limit <= 0:
            raise ConfigError("limit must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError("deadline must be positive (seconds of query wall-clock budget)")
        if self.max_edges is not None and self.max_edges < 0:
            raise ConfigError("max_edges must be >= 0")
        if self.max_trees is not None and self.max_trees < 1:
            raise ConfigError(f"max_trees must be >= 1 (or None for no valve), got {self.max_trees!r}")
        mode = self.balanced_queues
        if mode is not True and mode is not False and mode != "auto":
            raise ConfigError(
                f"balanced_queues must be True, False or 'auto', got {self.balanced_queues!r}"
            )
        if not self.balance_ratio > 0:
            raise ConfigError(f"balance_ratio must be > 0, got {self.balance_ratio!r}")
        if isinstance(self.order, str) and self.order not in ("size", "score"):
            raise ConfigError(f"unknown order {self.order!r} (use 'size', 'score', or a callable)")
        if self.order == "score" and self.score is None:
            raise ConfigError("order='score' requires a score function")
        if isinstance(self.parallelism, bool) or not isinstance(self.parallelism, int) or self.parallelism < 1:
            raise ConfigError(
                f"parallelism must be an integer >= 1 (1 = serial CTP dispatch), "
                f"got {self.parallelism!r}"
            )
        if self.parallelism_mode not in PARALLELISM_MODES:
            raise ConfigError(
                f"unknown parallelism_mode {self.parallelism_mode!r} "
                f"(use one of {', '.join(PARALLELISM_MODES)})"
            )
        if self.labels is not None:
            object.__setattr__(self, "labels", frozenset(self.labels))

    def with_(self, **changes) -> "SearchConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)


#: The default configuration (no filters, paper's smallest-first order).
DEFAULT_CONFIG = SearchConfig()
