"""Search statistics.

Figure 11 of the paper plots the *number of provenances* each algorithm
builds next to its runtime — "the algorithm running times closely track the
numbers of built provenances".  :class:`SearchStats` counts every event the
engines generate so the benchmark harness can regenerate those plots and so
tests can assert pruning behaviour precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable


@dataclass
class SearchStats:
    """Counters accumulated during one CTP evaluation."""

    init_trees: int = 0
    grows: int = 0
    merges_attempted: int = 0
    merges: int = 0
    mo_copies: int = 0
    pruned_history: int = 0
    pruned_filters: int = 0
    trees_kept: int = 0
    #: Grow-frontier heap entries pushed: one per kept tree that has a legal
    #: Grow, so ``queue_pushes <= trees_kept`` whatever the roots' degrees
    #: (the entry's cursor yields the Grows one by one; ``grows`` counts those).
    #: The BFT family pushes every kept tree that is not a result.
    queue_pushes: int = 0
    results_found: int = 0
    duplicate_results: int = 0
    #: Whole sat buckets of merge partners skipped per Merge2 (the indexed
    #: TreesRootedIn); each skip avoids scanning every tree in the bucket.
    merge_buckets_skipped: int = 0
    #: Queue-size probes made by balanced-queue pops (Section 4.9 (ii)):
    #: lazy size-heap entries examined, stale ones included.
    balanced_pop_scans: int = 0
    #: Edge-set pool telemetry (repro.ctp.interning): distinct sets
    #: interned, unions answered by an already-interned set (hits) and
    #: unions that materialized a new one (misses).
    #: When the run adopted a query-scoped SearchContext these are *deltas*
    #: against the shared pool's state at run start.
    pool_sets: int = 0
    pool_union_hits: int = 0
    pool_union_misses: int = 0
    elapsed_seconds: float = 0.0

    @property
    def provenances(self) -> int:
        """Total provenances built and retained (Figure 11 d-f metric)."""
        return self.trees_kept + self.mo_copies

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Fold another run's counters into this one (in place); returns self.

        Every field sums — including ``elapsed_seconds``, which therefore
        reads as *aggregate search time* across the merged runs (under
        parallel dispatch that exceeds the wall-clock of the batch; the
        wall-clock lives in the caller's timings).  The merge is driven by
        *this* class's field introspection with a zero default for fields
        ``other`` lacks: an instance unpickled from an older worker (or a
        checkpoint that predates a counter) merges cleanly instead of
        silently dropping — or crashing on — the newer counters.
        """
        for spec in fields(self):
            setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name, 0))
        return self

    @classmethod
    def merged(cls, runs: Iterable["SearchStats"]) -> "SearchStats":
        """Aggregate several runs' counters into a fresh ``SearchStats``.

        Integer counters are order-independent; ``elapsed_seconds`` is a
        float sum, so callers that need bit-stable aggregates must pass
        ``runs`` in a fixed order — the parallel dispatcher merges in CTP
        order, never completion order, exactly so the aggregate is
        identical regardless of worker count or scheduling.
        """
        out = cls()
        for stats in runs:
            out.merge(stats)
        return out

    def as_dict(self) -> Dict[str, float]:
        """Every declared counter plus the derived ``provenances``.

        Field-introspected (not a hand-maintained literal) so a counter
        added to the dataclass can never be silently absent from reports,
        checkpoints, or bench JSON.
        """
        out: Dict[str, float] = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        out["provenances"] = self.provenances
        return out

    def format(self) -> str:
        return (
            f"provenances={self.provenances} (kept={self.trees_kept}, mo={self.mo_copies}) "
            f"grows={self.grows} merges={self.merges}/{self.merges_attempted} "
            f"pruned={self.pruned_history} results={self.results_found} "
            f"elapsed={self.elapsed_seconds * 1000.0:.1f}ms"
        )
