"""``MAX k`` as a distance bound: a pruned search is the unpruned one, in order.

A tree of s edges that holds no seed of S_j lies in a tree of at most k
edges covering S_j only if one of its nodes is within k - s hops of S_j:
the path from the tree to that seed adds at least that many edges.  A
supertree only adds edges, so a tree that fails the test is in no result,
and neither is anything built from it.  The engines never build such a
tree (``repro.ctp.engine.distance_bound``).

This module holds every pruned run to the unpruned run of the same CTP —
the same engine with the bound switched off — over Hypothesis
multigraphs with self-loops, parallel edges and labels, all eight
algorithms, and every filter the engines take:

* the results are the same, in emission order (edges, nodes, seeds,
  weight and score of every result), and so is ``complete``;
* the pruned run builds no more provenances;
* a CTP outside the eligible set runs counter for counter as before.
  The eligible set is restated here, independently of the engines:
  ``MAX`` with no ``LIMIT`` and no ``max_trees``, unbalanced queues, and
  not LESP / MoLESP with three or more explicit seed sets.
"""

from __future__ import annotations

import contextlib
from typing import Any, List, Sequence

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.ctp import ALGORITHMS, bft, engine
from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.registry import get_algorithm
from repro.graph.graph import Graph
from repro.query.scoring import get_score_function

LABELS = ("a", "b", "c")
WEIGHTS = (0.5, 1.0, 2.0, 3.5)


def _record(result_set: Any) -> List[Any]:
    """Everything a row can show, in emission order."""
    return [(r.edges, r.nodes, r.seeds, r.weight, r.score) for r in result_set]


def _counters(result_set: Any) -> dict:
    stats = result_set.stats.as_dict()
    stats.pop("elapsed_seconds")
    return stats


@contextlib.contextmanager
def _unbounded():
    """Run the engines with the distance bound switched off."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (engine, bft):
            patch.setattr(module, "distance_bound", lambda *args: None, raising=False)
        yield


def _eligible(algorithm: str, seed_sets: Sequence[Any], config: SearchConfig) -> bool:
    if not config.max_edges or config.limit is not None or config.max_trees is not None:
        return False
    if algorithm.startswith("bft"):
        return True
    sizes = [len(set(s)) for s in seed_sets if s is not WILDCARD]
    if config.balanced_queues == "auto":
        # A wildcard set always balances the queues (Section 4.9).
        balanced = len(sizes) < len(seed_sets) or max(sizes) / min(sizes) >= config.balance_ratio
    else:
        balanced = config.balanced_queues
    return not balanced and not (algorithm in ("lesp", "molesp") and len(sizes) >= 3)


@st.composite
def _scenarios(draw: Any) -> Any:
    graph = Graph("bound")
    for index in range(draw(st.integers(min_value=2, max_value=9), label="nodes")):
        graph.add_node(f"n{index}")
    endpoint = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=14), label="edges")):
        # Self-loops and parallel edges are both legal draws.
        graph.add_edge(
            draw(endpoint), draw(endpoint), draw(st.sampled_from(LABELS)), draw(st.sampled_from(WEIGHTS))
        )
    if draw(st.booleans(), label="frozen"):
        graph = graph.freeze()
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS)), label="algorithm")
    m = draw(st.integers(min_value=1, max_value=4), label="m")
    seed_sets: List[Any] = [tuple(draw(st.lists(endpoint, min_size=1, max_size=3))) for _ in range(m)]
    if m > 1 and not algorithm.startswith("bft") and draw(st.integers(0, 9)) == 0:
        seed_sets[draw(st.integers(0, m - 1))] = WILDCARD
    scoring = draw(st.sampled_from(["none"] * 5 + ["score", "top", "order"]), label="scoring")
    score = None if scoring == "none" else get_score_function("weight")
    config = SearchConfig(
        max_edges=draw(st.sampled_from([None, 0, 1, 2, 2, 3, 3, 3, 4, 4, 5])),
        uni=draw(st.booleans()),
        labels=draw(st.none() | st.frozensets(st.sampled_from(LABELS), min_size=1)),
        limit=draw(st.sampled_from([None] * 6 + [2, 5])),
        score=score,
        top_k=2 if scoring == "top" else None,
        order="score" if scoring == "order" else "size",
        balanced_queues=draw(st.sampled_from(["auto", "auto", False, False, True])),
        balance_ratio=draw(st.sampled_from([32.0, 1.5])),
        max_trees=draw(st.sampled_from([None] * 7 + [100_000])),
        strict_merge2=draw(st.booleans()),
        mo_inject_always=draw(st.booleans()),
    )
    return graph, algorithm, seed_sets, config


def test_a_tree_that_cannot_reach_the_other_seed_set_is_never_built():
    # s1 - a - s2 under MAX 2, and a tail s1 - x1 - x2 that leads away.
    graph = Graph("tail")
    s1, a, s2, x1, x2 = (graph.add_node(name) for name in ("s1", "a", "s2", "x1", "x2"))
    for source, target in ((s1, a), (a, s2), (s1, x1), (x1, x2)):
        graph.add_edge(source, target, "e")
    config = SearchConfig(max_edges=2)
    for algorithm in sorted(ALGORITHMS):
        pruned = get_algorithm(algorithm).run(graph, [(s1,), (s2,)], config)
        with _unbounded():
            unpruned = get_algorithm(algorithm).run(graph, [(s1,), (s2,)], config)
        assert _record(pruned) == _record(unpruned)
        assert [sorted(r.nodes) for r in pruned] == [[s1, a, s2]]
        # {s1-x1} is within 2 edges but holds no node within 1 hop of s2.
        assert pruned.stats.provenances < unpruned.stats.provenances, algorithm


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=_scenarios())
def test_a_pruned_run_equals_the_unpruned_run_in_order(scenario):
    graph, algorithm, seed_sets, config = scenario
    pruned = get_algorithm(algorithm).run(graph, seed_sets, config)
    with _unbounded():
        unpruned = get_algorithm(algorithm).run(graph, seed_sets, config)
    assert _record(pruned) == _record(unpruned)
    assert pruned.complete == unpruned.complete
    assert pruned.stats.provenances <= unpruned.stats.provenances
    if not _eligible(algorithm, seed_sets, config):
        assert _counters(pruned) == _counters(unpruned)
        event("ineligible")
    else:
        event("pruned" if pruned.stats.provenances < unpruned.stats.provenances else "eligible, same work")
