"""E-query-context — query-scoped SearchContext vs a pool per CTP.

Not tied to a paper figure.  Measures what the query-scoped search context
(:class:`repro.ctp.context.SearchContext` — one edge-set pool for all
CTPs of a query, a per-root rooted-result cache, and the evaluator's
cross-CTP memo of complete result sets) buys on multi-CTP queries,
end-to-end through :func:`repro.query.evaluator.evaluate_query`.  Every
row runs the *same* query twice — ``SearchConfig(shared_context=False)``
restores the pool-per-CTP behaviour of the pre-context evaluator — so the
delta is exactly the sharing.

Row regimes:

* ``memo`` — the same CONNECT repeated under several tree variables (the
  repeated-evaluation case the evaluator's cross-CTP memo targets: only
  the first run searches, the rest are cache hits).  Expect the speedup to
  approach the number of duplicate CTPs as search dominates the query.
* ``overlap`` — several CTPs sharing one seed set but connecting it to
  *different* targets: no memo hit is possible, the win is the shared pool
  (edge sets a sibling CTP interned are found, not rebuilt) plus rooted
  result-cache hits on connections both CTPs discover.  Expect a modest
  >= 1x.
* ``control`` — a single-CTP query, where sharing has nothing to share:
  the context must not tax it (target: within a few percent).

Every row also cross-checks that the shared-context rows are identical to
the per-CTP-pool rows (column ``identical``) — the context is reuse only,
never a semantics change.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.bench.harness import ExperimentReport, Measurement
from repro.ctp.config import SearchConfig
from repro.ctp.results import ResultTree
from repro.graph.datasets import figure1
from repro.graph.graph import Graph
from repro.query.ast import CTP, Condition, EQLQuery, Predicate
from repro.query.evaluator import QueryResult, evaluate_query


def grouped_star(num_sets: int, tips_per_set: int, arm_length: int) -> Graph:
    """A star whose arm tips carry one type per seed group.

    ``CONNECT`` over two groups is the merge-heavy keyword regime (many
    alternative tips per seed set, all trees meeting at the hub), here
    driven through EQL type predicates so the evaluator derives the seed
    sets itself.
    """
    graph = Graph(f"grouped-star({num_sets}x{tips_per_set},arm={arm_length})")
    center = graph.add_node("center")
    for group in range(num_sets):
        for tip_index in range(tips_per_set):
            current = center
            for j in range(arm_length - 1):
                node = graph.add_node(f"R{group}_{tip_index}_{j}")
                graph.add_edge(current, node, "e")
                current = node
            tip = graph.add_node(f"S{group}_{tip_index}", types=(f"g{group}",))
            graph.add_edge(current, tip, "e")
    return graph


def _group_seed(var: str, group: int) -> Predicate:
    return Predicate(var, (Condition("type", "=", f"g{group}"),))


def _dup_query(num_ctps: int) -> EQLQuery:
    """``num_ctps`` identical CONNECTs over shared seed variables."""
    ctps = tuple(
        CTP((_group_seed("a", 0), _group_seed("b", 1)), f"w{j}") for j in range(num_ctps)
    )
    head = ("a", "b") + tuple(f"w{j}" for j in range(num_ctps))
    return EQLQuery(head=head, ctps=ctps)


def _overlap_query(num_ctps: int) -> EQLQuery:
    """CTPs sharing the g0 seed set, each connecting it to its own group."""
    ctps = tuple(
        CTP((_group_seed("a", 0), _group_seed(f"b{j}", j + 1)), f"w{j}")
        for j in range(num_ctps)
    )
    head = ("a",) + tuple(f"w{j}" for j in range(num_ctps))
    return EQLQuery(head=head, ctps=ctps)


def _control_query() -> EQLQuery:
    return EQLQuery(head=("a", "b", "w"), ctps=(CTP((_group_seed("a", 0), _group_seed("b", 1)), "w"),))


FIG1_TWO_CTP = """
SELECT ?x ?w1 ?w2 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "France") AS ?w2 MAX 3
}
"""


def _canonical(result: QueryResult):
    """Order-independent row identity: trees collapse to (edges, weight)."""
    rows = [
        tuple(
            (tuple(sorted(value.edges)), round(value.weight, 9))
            if isinstance(value, ResultTree)
            else value
            for value in row
        )
        for row in result.rows
    ]
    return sorted(rows)


def _ab(
    graph: Graph,
    query,
    repeats: int,
    timeout: float,
    algorithm: str = "molesp",
) -> Tuple[float, float, QueryResult, bool]:
    """Interleaved best-of-N A/B: pool-per-CTP vs shared context."""
    per_ctp = shared = float("inf")
    shared_result: Optional[QueryResult] = None
    identical = True
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        baseline = evaluate_query(
            graph,
            query,
            algorithm=algorithm,
            base_config=SearchConfig(shared_context=False),
            default_timeout=timeout,
        )
        per_ctp = min(per_ctp, time.perf_counter() - started)
        started = time.perf_counter()
        shared_result = evaluate_query(
            graph,
            query,
            algorithm=algorithm,
            base_config=SearchConfig(shared_context=True),
            default_timeout=timeout,
        )
        shared = min(shared, time.perf_counter() - started)
        identical = identical and _canonical(shared_result) == _canonical(baseline)
    return per_ctp, shared, shared_result, identical


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 60.0
    report = ExperimentReport(
        experiment="query-context",
        title="Query-context micro-bench: shared SearchContext vs pool-per-CTP (multi-CTP queries)",
        config={"scale": scale, "timeout": timeout, "repeats": repeats},
    )

    tips = max(2, round(5 * scale))
    tips_wide = max(2, round(6 * scale))
    star = grouped_star(2, tips, 2)
    # Longer arms keep the searches (not the final join) the dominant cost
    # on the overlap row, which shares seed sets but not whole CTPs.
    star_overlap = grouped_star(3, tips_wide, 3)
    fig1 = figure1()

    workloads = (
        ("dup-3-ctps", "memo", star, _dup_query(3)),
        ("dup-5-ctps", "memo", star, _dup_query(5)),
        ("fig1-dup-ctp", "memo", fig1, FIG1_TWO_CTP),
        ("overlap-2-ctps", "overlap", star_overlap, _overlap_query(2)),
        ("single-ctp", "control", star, _control_query()),
    )
    for name, regime, graph, query in workloads:
        per_ctp_s, shared_s, shared_result, identical = _ab(graph, query, repeats, timeout)
        ctx = shared_result.context_stats or {}
        report.add(
            Measurement(
                params={"workload": name, "regime": regime},
                seconds=per_ctp_s,
                values={
                    "per_ctp_ms": round(per_ctp_s * 1000, 3),
                    "shared_ms": round(shared_s * 1000, 3),
                    "speedup": round(per_ctp_s / shared_s, 2) if shared_s else float("inf"),
                    "rows": len(shared_result),
                    "ctp_cache_hits": ctx.get("ctp_cache_hits", 0),
                    "pool_union_hits": ctx.get("pool_union_hits", 0),
                    "rooted_hits": ctx.get("rooted_cache_hits", 0),
                    "identical": identical,
                },
            )
        )
        if not identical:
            report.note(f"EQUIVALENCE FAILURE on {name}: shared-context rows differ from per-CTP rows")

    report.note(
        "speedup = per_ctp_ms / shared_ms; both paths run evaluate_query on the same "
        "query, with SearchConfig(shared_context=...) toggling the query-scoped "
        "SearchContext (shared edge-set pool + per-root result cache + cross-CTP memo)"
    )
    report.note(
        "memo rows repeat one CONNECT under several tree variables: the evaluator's "
        "cross-CTP memo runs the search once and serves the rest from cache, so the "
        "speedup approaches the CTP multiplicity as search dominates; overlap rows "
        "share only the seed set (pool + rooted-cache reuse); the control row checks "
        "the no-sharing tax"
    )
    report.note(
        "identical=True asserts row-for-row equality (trees compared by edge set and "
        "weight) between the shared-context and per-CTP-pool paths"
    )
    return report
