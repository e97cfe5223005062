"""What the literal Merge2 of Section 4.2 loses, stated as properties.

``SearchConfig(strict_merge2=True)`` forbids any overlap of the two
trees' satisfied seed sets, where the engines' relaxed reading allows
overlap through the shared root (``repro.ctp.engine`` docstring).  Two
trees that both hold a seed can then never merge at it.  On random
connected multigraphs with 2-5 pairwise-disjoint seed sets:

* no strict result of GAM, MoESP or MoLESP has a seed of tree degree 3
  or more, and every strict result is a result (it is in GAM's relaxed
  set);
* GAM loses exactly the results with a seed of tree degree 3 or more;
* MoESP and MoLESP lose more: every result they lose has a seed of tree
  degree 2 or more, but most have none of degree 3 or more.  Their Mo
  copies are rooted at a seed and merge only there, which the strict
  condition blocks;
* the strict run finds a subset of the relaxed run's results wherever
  the relaxed run is complete.  MoESP is not complete on every CTP of
  three or more seed sets (it misses results with 3-simple pieces,
  :mod:`repro.ctp.moesp`), and there its strict run can find a result
  its relaxed run misses.

ESP and LESP are left out: they are incomplete by design (Sections 4.4
and 4.6), and their strict runs often find results their relaxed runs
miss.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.ctp.config import SearchConfig
from repro.ctp.registry import get_algorithm
from repro.graph.graph import Graph
from repro.testing import random_graph, random_seed_sets

STRICT = SearchConfig(strict_merge2=True)


def _max_seed_degree(graph: Graph, edges: Any, seeds: set) -> int:
    """The largest tree degree of a seed node of a result (0 for one node)."""
    degree: Dict[int, int] = Counter()
    for edge_id in edges:
        source, target = graph.edge_endpoints(edge_id)
        degree[source] += 1
        degree[target] += 1
    return max((degree[node] for node in degree if node in seeds), default=0)


@st.composite
def _ctps(draw: Any) -> Any:
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32), label="rng seed"))
    nodes = draw(st.integers(min_value=5, max_value=10), label="nodes")
    # Connected graphs and disjoint seed sets: in about half of the draws
    # the strict runs lose results.
    graph = random_graph(rng, nodes, nodes - 1 + draw(st.integers(min_value=0, max_value=3), label="extra edges"))
    m = min(draw(st.integers(min_value=2, max_value=5), label="m"), nodes // 2 + 1)
    return graph, random_seed_sets(rng, graph, m, max_size=2 if nodes >= 2 * m else 1)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ctp=_ctps())
def test_strict_merge2_loses_only_results_with_a_seed_of_degree_two_or_more(ctp):
    graph, seed_sets = ctp
    seeds = {node for seed_set in seed_sets for node in seed_set}
    complete = get_algorithm("gam").run(graph, seed_sets).edge_sets()
    lost = Counter()
    for algorithm in ("gam", "moesp", "molesp"):
        relaxed = get_algorithm(algorithm).run(graph, seed_sets).edge_sets()
        strict = get_algorithm(algorithm).run(graph, seed_sets, STRICT).edge_sets()
        assert strict <= complete, algorithm
        if relaxed == complete:
            assert strict <= relaxed, algorithm
        for edges in strict:
            assert _max_seed_degree(graph, edges, seeds) < 3, (algorithm, sorted(edges))
        for edges in relaxed - strict:
            degree = _max_seed_degree(graph, edges, seeds)
            assert degree >= 2, (algorithm, sorted(edges))
            assert algorithm != "gam" or degree >= 3, sorted(edges)
            lost["a seed branches" if degree >= 3 else "no seed branches"] += 1
    for kind in lost:
        event(f"lost, {kind}")
