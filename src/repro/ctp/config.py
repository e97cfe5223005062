"""Search configuration: CTP filters (Section 2) and engine knobs.

The paper's CTP filters — ``UNI``, ``LABEL {l1..lk}``, ``MAX n``,
``SCORE sigma [TOP k]``, a per-CTP timeout, and ``LIMIT`` — all live on
:class:`SearchConfig`, which every algorithm accepts.  ``UNI``, ``LABEL``,
``MAX``, the timeout and ``LIMIT`` are *pushed into* the search (Section
4.8) rather than applied on materialized results.  ``TOP k`` is not: the
search scores every result it finds, and the k best are kept after it
ends (``_GAMRun._final_results`` in :mod:`repro.ctp.engine`).  Pushing it
down is ROADMAP item 13(c).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, FrozenSet, Optional, Union

from repro.errors import ConfigError

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
        ``timeout`` is its equal share of the budget
        (:class:`~repro.query.costmodel.DeadlineLedger`), re-granted
        upward at execution as faster CTPs finish under theirs, so the
        CTPs of a query together spend about one deadline of wall time —
        the per-query deadline discipline a serving front-end needs.
        Deadline-truncated result sets are
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
        :mod:`repro.ctp.engine` docstring).  Two trees that both hold a
        seed can then never merge at it, so no strict result has a seed
        of tree degree 3 or more.  GAM loses exactly the results that
        have one.  MoESP and MoLESP lose more, because their Mo copies
        are rooted at a seed and merge only there: every result they
        lose has a seed of tree degree 2 or more, and most have no seed
        of degree 3 or more (``tests/test_strict_merge2.py``).  Exposed
        to make the loss measurable.
    mo_inject_always (ablation):
        Inject Mo copies for *every* new tree (Algorithm 3 read literally)
        instead of only when seed coverage grew (the Section 4.5 text).
        Same results, strictly more work; exposed to quantify the cost.
    parallelism:
        Read by no query evaluation: a query's CTPs run in the
        :class:`~repro.query.pool.WorkerPool` passed to the evaluator, or
        inline without one (:mod:`repro.query.parallel`), and the deadline
        ledger takes its concurrent slots from that pool's ``workers``.
        Kept for callers that still pass it.  Result rows never depend on
        it.  Must be >= 1; anything else raises
        :class:`~repro.errors.ConfigError`.
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
        if self.labels is not None:
            object.__setattr__(self, "labels", frozenset(self.labels))

    def with_(self, **changes) -> "SearchConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)


#: The default configuration (no filters, paper's smallest-first order).
DEFAULT_CONFIG = SearchConfig()
