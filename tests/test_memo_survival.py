"""Cross-generation memo survival: a carried entry must be a fresh run.

A complete ``MAX k`` result set memoized at one generation may be served
at a later one when no edge the mutations touched (appended or
re-weighted) can lie in a tree of at most k edges the search reports —
an edge outside the (k-1)-hop undirected ball of some seed set never
can — so it can neither enter a result nor move one (see
:meth:`repro.ctp.context.SearchContext.memo_get`).  This module holds that
rule to the only thing it may equal — a fresh, context-less search of the
same CTP on the view pinned at the new generation — **in emission order**
(edges, nodes, seeds, weight and score of every result).

The property drives the real memo path (one keyed job through
``run_ctp_jobs`` with the evaluator's memo key, into one long-lived
context) over Hypothesis multigraphs with self-loops, parallel edges and
labels, all eight algorithms, ``uni`` / ``labels`` / ``strict_merge2`` /
``mo_inject_always`` / ``balanced_queues`` / ``limit`` and the
ineligible filters, through batches of new nodes, appended edges and
re-weights of any edge, with compactions in between.  Every batch bumps
the generation, so every memo hit it observes is a carried entry:

* a carried entry equals the fresh run, in order;
* an ineligible CTP (no ``MAX``, a wildcard set, ``SCORE`` / ``TOP k`` /
  ``max_trees``, a non-size order, balanced queues, LESP / MoLESP with
  three or more seed sets) is never carried.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.ctp import ALGORITHMS
from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.registry import get_algorithm
from repro.graph.graph import Graph
from repro.query.evaluator import _ctp_memo_key
from repro.query.parallel import CTPJob, run_ctp_jobs
from repro.query.scoring import get_score_function

LABELS = ("a", "b", "c")
WEIGHTS = (0.5, 1.0, 2.0, 3.5)
MUTATIONS = ("node", "edge", "edge", "weight")


def _record(result_set: Any) -> List[Any]:
    """Everything a row can show, in emission order."""
    return [(r.edges, r.nodes, r.seeds, r.weight, r.score) for r in result_set]


def _eligible(algorithm: str, seed_sets: Sequence[Any], config: SearchConfig) -> bool:
    """The eligibility half of the rule, restated independently."""
    if config.max_edges is None or any(s is WILDCARD for s in seed_sets):
        return False
    if config.score is not None or config.top_k is not None or config.max_trees is not None:
        return False
    if config.order != "size":
        return False
    sizes = [len(set(s)) for s in seed_sets]
    balanced = config.balanced_queues is True or (
        config.balanced_queues == "auto"
        and min(sizes) > 0
        and max(sizes) / min(sizes) >= config.balance_ratio
    )
    if balanced:
        return False
    return not (algorithm in ("lesp", "molesp") and len(seed_sets) >= 3)


@st.composite
def _scenarios(draw: Any) -> Any:
    graph = Graph("memo")
    for index in range(draw(st.integers(min_value=2, max_value=6), label="nodes")):
        graph.add_node(f"n{index}")
    endpoint = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=9), label="edges")):
        # Self-loops and parallel edges are both legal draws.
        graph.add_edge(
            draw(endpoint), draw(endpoint), draw(st.sampled_from(LABELS)), draw(st.sampled_from(WEIGHTS))
        )
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS)), label="algorithm")
    m = draw(st.integers(min_value=1, max_value=4), label="m")
    seed_sets: List[Any] = [
        tuple(draw(st.lists(endpoint, min_size=1, max_size=3))) for _ in range(m)
    ]
    if m > 1 and not algorithm.startswith("bft") and draw(st.integers(0, 9)) == 0:
        seed_sets[draw(st.integers(0, m - 1))] = WILDCARD
    scoring = draw(st.sampled_from(["none"] * 6 + ["score", "top", "order"]), label="scoring")
    score = None if scoring == "none" else get_score_function("weight")
    config = SearchConfig(
        max_edges=draw(st.sampled_from([None, 0, 1, 2, 2, 3, 3, 4])),
        uni=draw(st.booleans()),
        labels=draw(st.none() | st.frozensets(st.sampled_from(LABELS), min_size=1)),
        limit=draw(st.sampled_from([None, None, None, 2, 5])),
        score=score,
        top_k=2 if scoring == "top" else None,
        order="score" if scoring == "order" else "size",
        balanced_queues=draw(st.sampled_from(["auto", "auto", False, True])),
        balance_ratio=draw(st.sampled_from([32.0, 1.5])),
        max_trees=draw(st.sampled_from([None] * 5 + [100_000])),
        strict_merge2=draw(st.booleans()),
        mo_inject_always=draw(st.booleans()),
    )
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4), label="batches")):
        batch = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(MUTATIONS),
                    st.integers(0, 10**6),
                    st.integers(0, 10**6),
                    st.sampled_from(LABELS),
                    st.sampled_from(WEIGHTS),
                ),
                min_size=1,
                max_size=3,
            )
        )
        batches.append((batch, draw(st.sampled_from(["view", "view", "view", "freeze"])), draw(st.booleans())))
    return graph, algorithm, seed_sets, config, batches


def _apply(graph: Graph, batch: Sequence[Any]) -> None:
    for kind, first, second, label, weight in batch:
        if kind == "node":
            graph.add_node(f"x{first}")
        elif kind == "edge":
            graph.add_edge(first % graph.num_nodes, second % graph.num_nodes, label, weight)
        else:
            graph.set_edge_weight(first % graph.num_edges, weight)


def _memo_run(view: Any, algorithm: str, seed_sets: Sequence[Any], config: SearchConfig, context: SearchContext):
    key = _ctp_memo_key(view, algorithm, seed_sets, config)
    (outcome,) = run_ctp_jobs(view, algorithm, [CTPJob(0, list(seed_sets), config, key)], context)
    return outcome


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=_scenarios())
def test_a_carried_entry_equals_a_fresh_run_in_order(scenario):
    graph, algorithm, seed_sets, config, batches = scenario
    graph.ensure_base()
    context = SearchContext()
    first = _memo_run(graph.read_view(), algorithm, seed_sets, config, context)
    assert not first.cache_hit
    eligible = _eligible(algorithm, seed_sets, config)
    for batch, kind, compact in batches:
        _apply(graph, batch)  # at least one mutation: the generation moves
        if compact:
            graph.compact()
        view = graph.read_view() if kind == "view" else graph.freeze()
        outcome = _memo_run(view, algorithm, seed_sets, config, context)
        fresh = get_algorithm(algorithm).run(view, seed_sets, config)
        event("carried" if outcome.cache_hit else "recomputed")
        if outcome.cache_hit:
            assert eligible, "an ineligible CTP was carried across a mutation"
        assert _record(outcome.result_set) == _record(fresh)
