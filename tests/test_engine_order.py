"""Exploration-order behaviour (Sections 4.2 and 4.8).

The paper's experiments favour the smallest trees in the priority queue;
Section 4.8 observes that any order can be combined with MoLESP because
its guarantees are order-independent.  These tests observe the order
through LIMIT: the first result produced under a given order must be the
one that order favours.
"""

import heapq
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.engine import _GAMRun
from repro.ctp.esp import ESPSearch
from repro.ctp.gam import GAMSearch
from repro.ctp.lesp import LESPSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.graph.graph import Graph
from repro.query.scoring import size_score
from repro.testing import random_graph, random_seed_sets


@pytest.fixture
def two_route_graph():
    """A short (1 edge via hub) and a long (3 edges) route between a, b."""
    g = Graph()
    a, b = g.add_node("a"), g.add_node("b")
    hub = g.add_node("hub")
    x1, x2 = g.add_node("x1"), g.add_node("x2")
    g.add_edge(a, hub, "short")  # 0
    g.add_edge(hub, b, "short")  # 1
    g.add_edge(a, x1, "long")  # 2
    g.add_edge(x1, x2, "long")  # 3
    g.add_edge(x2, b, "long")  # 4
    return g, a, b


def test_smallest_first_order_finds_short_route_first(two_route_graph):
    g, a, b = two_route_graph
    results = MoLESPSearch().run(g, [[a], [b]], SearchConfig(limit=1))
    assert len(results) == 1
    assert results.results[0].size == 2  # the 2-edge hub route


def test_merge_opportunities_bypass_queue_order(two_route_graph):
    """Section 4.2: the enumeration order is set 'first, by the priority of
    the queue, and second, by the available Merge opportunities'.  Merges
    fire eagerly, so even a largest-first queue yields the short hub route
    first — its two half-paths meet and merge before the long route's
    chain of Grow steps completes."""
    g, a, b = two_route_graph
    config = SearchConfig(limit=1, order=lambda tree: -tree.size)
    results = MoLESPSearch().run(g, [[a], [b]], config)
    assert results.results[0].size == 2


def test_score_guided_order_prefers_high_scores(two_route_graph):
    g, a, b = two_route_graph
    config = SearchConfig(limit=1, score=size_score, order="score")
    results = MoLESPSearch().run(g, [[a], [b]], config)
    # size_score favours small trees, so the hub route comes first
    assert results.results[0].size == 2


def test_order_does_not_change_complete_result_set(two_route_graph):
    g, a, b = two_route_graph
    default = MoLESPSearch().run(g, [[a], [b]])
    reverse = MoLESPSearch().run(g, [[a], [b]], SearchConfig(order=lambda t: -t.size))
    assert default.edge_sets() == reverse.edge_sets()
    assert len(default) == 2


class TestWildcardWithFilters:
    def test_wildcard_uni_results_are_arborescences(self):
        g = Graph()
        a = g.add_node("a")
        out1 = g.add_node("o1")
        out2 = g.add_node("o2")
        inc = g.add_node("i")
        g.add_edge(a, out1, "e")  # a -> o1
        g.add_edge(out1, out2, "e")  # o1 -> o2
        g.add_edge(inc, a, "e")  # i -> a
        config = SearchConfig(uni=True, max_edges=2)
        results = MoLESPSearch().run(g, [[a], WILDCARD], config)
        for result in results:
            in_deg = {node: 0 for node in result.nodes}
            for edge_id in result.edges:
                in_deg[g.edge(edge_id).target] += 1
            roots = [n for n, d in in_deg.items() if d == 0]
            assert len(roots) == 1 or not result.edges

    def test_wildcard_label_filter(self, fig1):
        bob = fig1.find_node_by_label("Bob")
        config = SearchConfig(labels=frozenset({"founded"}), max_edges=2)
        results = MoLESPSearch().run(fig1, [[bob], WILDCARD], config)
        for result in results:
            assert all(fig1.edge(e).label == "founded" for e in result.edges)

    def test_wildcard_with_score_top_k(self, fig1):
        bob = fig1.find_node_by_label("Bob")
        config = SearchConfig(score=size_score, top_k=3, max_edges=3)
        results = MoLESPSearch().run(fig1, [[bob], WILDCARD], config)
        assert len(results) == 3
        # size_score: the single-node tree scores 1.0 and must be kept
        assert frozenset() in results.edge_sets()


# ----------------------------------------------------------------------
# The lazy Grow frontier pops in the order of an eager per-edge queue
# ----------------------------------------------------------------------
class _TracedRun(_GAMRun):
    """The engine as shipped, recording every Grow it pops."""

    def __init__(self, *args):
        super().__init__(*args)
        self.trace = []

    def _grows(self):
        for grow in super()._grows():
            tree, edge_id, other, _ = grow
            self.trace.append((tree.root, edge_id, other))
            yield grow


class _EagerRun(_TracedRun):
    """Reference frontier: one heap entry per legal Grow, pushed when the
    tree is kept, popped by ``(priority, ticket)`` — from the least-filled
    queue under balanced mode (Section 4.9 (ii)).  Everything else (filters,
    history, merging) is the engine's own code."""

    def _queue_grows(self, tree):
        config = self.config
        if config.max_edges is not None and tree.size + 1 > config.max_edges:
            return
        priority = self.priority(tree)
        queue = self.queues.setdefault(tree.sat if self.balanced else 0, [])
        for edge_id, other, outgoing in self.graph.adjacent_filtered(tree.root, config.labels):
            if other in tree.nodes or self.seed_mask.get(other, 0) & tree.sat:
                continue
            heapq.heappush(queue, (priority, self._ticket(), tree, edge_id, other, outgoing))
            self.stats.queue_pushes += 1

    def _grows(self):
        while True:
            filled = [(len(queue), key) for key, queue in self.queues.items() if queue]
            if not filled:
                return
            _, _, tree, edge_id, other, outgoing = heapq.heappop(self.queues[min(filled)[1]])
            self.trace.append((tree.root, edge_id, other))
            yield tree, edge_id, other, outgoing


def _degree_score(graph, edges, nodes):
    """Favours trees through hubs: larger trees may outrank smaller ones."""
    return sum(graph.degree(n) for n in nodes) / (1.0 + len(edges))


def _jumbled_order(tree):
    """Few distinct values (ties) that do not grow with the tree (inversions:
    a tree filed later may precede the entry being drained)."""
    return (tree.root * 7 + tree.size * 3 + tree.sat) % 4


ORDERS = {
    "size": dict(order="size"),
    "score": dict(order="score", score=_degree_score),
    "callable": dict(order=_jumbled_order),
}
BOUNDS = {
    "complete": dict(),
    "limit": dict(limit=3),
    "max_trees": dict(max_trees=40),
    "max_edges": dict(max_edges=3),
    "labels": dict(labels=frozenset({"l0", "l1"})),
    "uni": dict(uni=True),
}
FRONTIER_STATS = ("queue_pushes", "balanced_pop_scans", "elapsed_seconds")


def _run_traced(run_cls, algorithm, graph, seed_sets, config):
    """(Grow trace, rows in discovery order, frontier-independent counters, complete), stats."""
    run = run_cls(graph, seed_sets, config, algorithm, None)
    result_set = run.execute()
    counters = {k: v for k, v in result_set.stats.as_dict().items() if k not in FRONTIER_STATS}
    rows = [(sorted(r.edges), r.seeds, r.weight) for r in result_set]
    return (run.trace, rows, counters, result_set.complete), result_set.stats


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 10_000),
    st.sampled_from(sorted(ORDERS)),
    st.booleans(),
    st.sampled_from(sorted(BOUNDS)),
)
def test_lazy_frontier_pops_in_eager_order(seed, order, balanced, bound):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(5, 12), rng.randint(6, 22), num_labels=3)
    seed_sets = random_seed_sets(random.Random(seed + 1), graph, rng.randint(2, 3), max_size=2)
    # max_trees keeps GAM's exponential cases bounded; the cut is count-based.
    options = dict(max_trees=3000, balanced_queues=balanced)
    options.update(ORDERS[order], **BOUNDS[bound])
    config = SearchConfig(**options)
    for algorithm_cls in (GAMSearch, ESPSearch, MoESPSearch, LESPSearch, MoLESPSearch):
        algorithm = algorithm_cls()
        lazy, lazy_stats = _run_traced(_TracedRun, algorithm, graph, seed_sets, config)
        eager, _ = _run_traced(_EagerRun, algorithm, graph, seed_sets, config)
        assert lazy[0] == eager[0], f"{algorithm.name}: Grow sequence diverged"
        assert lazy[1:] == eager[1:], algorithm.name
        # One heap entry per kept tree at most: an eager regression fails here.
        assert lazy_stats.queue_pushes <= lazy_stats.trees_kept, algorithm.name
