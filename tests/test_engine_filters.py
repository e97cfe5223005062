"""CTP filters pushed into the search (Sections 2 and 4.8)."""

import random

import pytest

from repro.testing import random_graph, random_seed_sets
from repro.ctp.config import SearchConfig
from repro.ctp.gam import GAMSearch
from repro.ctp.molesp import MoLESPSearch
from repro.query.scoring import size_score
from repro.workloads.synthetic import chain_graph, star_graph


class TestUni:
    def _in_degrees(self, graph, result):
        degrees = {node: 0 for node in result.nodes}
        for edge_id in result.edges:
            degrees[graph.edge(edge_id).target] += 1
        return degrees

    def test_results_are_arborescences(self):
        graph, seeds = star_graph(4, 2)
        results = MoLESPSearch().run(graph, seeds, SearchConfig(uni=True))
        assert len(results) == 1
        for result in results:
            degrees = self._in_degrees(graph, result)
            roots = [n for n, d in degrees.items() if d == 0]
            assert len(roots) == 1
            assert all(d <= 1 for d in degrees.values())

    def test_uni_is_subset_of_bidirectional(self, fig1, fig1_seeds):
        uni = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(uni=True))
        both = MoLESPSearch().run(fig1, fig1_seeds)
        assert uni.edge_sets() <= both.edge_sets()

    @pytest.mark.parametrize("seed", range(6))
    def test_uni_complete_m2(self, seed):
        """UNI-filtered search equals brute-force UNI filtering of the
        complete result set (cross-check on random graphs, m=2)."""
        rng = random.Random(seed + 7)
        graph = random_graph(rng, num_nodes=8, num_edges=11)
        seed_sets = random_seed_sets(rng, graph, m=2)
        pushed = MoLESPSearch().run(graph, seed_sets, SearchConfig(uni=True)).edge_sets()
        complete = MoLESPSearch().run(graph, seed_sets)
        expected = set()
        for result in complete:
            degrees = self._in_degrees(graph, result)
            roots = [n for n, d in degrees.items() if d == 0]
            if len(roots) == 1 and all(d <= 1 for d in degrees.values()):
                expected.add(result.edges)
        assert pushed == frozenset(expected)

    def test_chain_uni_still_exponential(self):
        # all chain edges point forward: every one of the 2^N paths is UNI
        graph, seeds = chain_graph(5)
        results = MoLESPSearch().run(graph, seeds, SearchConfig(uni=True))
        assert len(results) == 32


class TestLabels:
    def test_only_allowed_labels_used(self, fig1, fig1_seeds):
        allowed = frozenset({"founded", "investsIn", "parentOf"})
        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(labels=allowed))
        assert len(results) > 0
        for result in results:
            assert {fig1.edge(e).label for e in result.edges} <= allowed

    def test_label_filter_equals_subgraph_search(self, fig1, fig1_seeds):
        """LABEL-filtered search == search on the label-induced subgraph."""
        from repro.graph.graph import Graph

        allowed = frozenset({"founded", "investsIn", "parentOf", "citizenOf"})
        filtered = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(labels=allowed))
        # build the induced subgraph with identical node ids
        sub = Graph()
        for node in fig1.nodes():
            sub.add_node(node.label, node.types)
        id_map = {}
        for edge in fig1.edges():
            if edge.label in allowed:
                new_id = sub.add_edge(edge.source, edge.target, edge.label)
                id_map[new_id] = edge.id
        seeds = fig1_seeds
        on_sub = MoLESPSearch().run(sub, seeds)
        translated = {frozenset(id_map[e] for e in r.edges) for r in on_sub}
        assert filtered.edge_sets() == frozenset(translated)

    def test_impossible_labels_no_results(self, fig1, fig1_seeds):
        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(labels=frozenset({"ghost"})))
        assert len(results) == 0


class TestMaxEdges:
    def test_bound_respected(self, fig1, fig1_seeds):
        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(max_edges=4))
        assert all(r.size <= 4 for r in results)

    def test_equals_post_filtering(self, fig1, fig1_seeds):
        pushed = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(max_edges=4)).edge_sets()
        complete = MoLESPSearch().run(fig1, fig1_seeds)
        expected = frozenset(r.edges for r in complete if r.size <= 4)
        assert pushed == expected

    def test_zero_allows_single_node_results(self):
        from repro.graph.graph import Graph

        g = Graph()
        a = g.add_node("a")
        g.add_edge(a, a)
        results = MoLESPSearch().run(g, [[a], [a]], SearchConfig(max_edges=0))
        assert results.edge_sets() == frozenset({frozenset()})


class TestTimeoutAndLimit:
    def test_timeout_flags_partial(self):
        graph, seeds = chain_graph(16)
        results = MoLESPSearch().run(graph, seeds, SearchConfig(timeout=0.01))
        assert results.timed_out
        assert not results.complete
        assert len(results) < 2**16

    def test_limit_stops_early(self, fig1, fig1_seeds):
        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(limit=3))
        assert len(results) == 3
        assert not results.complete
        graph, seeds = chain_graph(12)
        assert len(MoLESPSearch().run(graph, seeds, SearchConfig(limit=100))) == 100

    def test_limit_one_like_figure12(self, fig1, fig1_seeds):
        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(limit=1))
        assert len(results) == 1


class TestScoreAndTopK:
    def test_scores_attached(self, fig1, fig1_seeds):
        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(score=size_score))
        assert all(r.score is not None for r in results)

    def test_top_k_keeps_best(self, fig1, fig1_seeds):
        config = SearchConfig(score=size_score, top_k=4)
        top = MoLESPSearch().run(fig1, fig1_seeds, config)
        complete = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(score=size_score))
        assert len(top) == 4
        best_scores = sorted((r.score for r in complete), reverse=True)[:4]
        assert sorted((r.score for r in top), reverse=True) == best_scores

    def test_best_helper(self, fig1, fig1_seeds):
        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(score=size_score))
        best = results.best()
        assert best.score == max(r.score for r in results)

    def test_score_guided_order_same_results(self, fig1, fig1_seeds):
        """Section 4.8: MoLESP's guarantees are order-independent, so a
        score-guided queue returns the same complete result set (m=3)."""
        guided = MoLESPSearch().run(
            fig1, fig1_seeds, SearchConfig(score=size_score, order="score")
        )
        default = MoLESPSearch().run(fig1, fig1_seeds)
        assert guided.edge_sets() == default.edge_sets()

    def test_custom_order_callable(self, fig1, fig1_seeds):
        custom = MoLESPSearch().run(
            fig1, fig1_seeds, SearchConfig(order=lambda tree: -tree.size)
        )
        default = MoLESPSearch().run(fig1, fig1_seeds)
        assert custom.edge_sets() == default.edge_sets()


class TestConfigValidation:
    def test_top_k_requires_score(self):
        with pytest.raises(ValueError):
            SearchConfig(top_k=3)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            SearchConfig(limit=0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            SearchConfig(order="chaos")

    def test_order_score_requires_score(self):
        with pytest.raises(ValueError):
            SearchConfig(order="score")

    def test_with_copies(self):
        config = SearchConfig(max_edges=5)
        updated = config.with_(uni=True)
        assert updated.uni and updated.max_edges == 5
        assert not config.uni


class TestCombinedFilters:
    def test_uni_label_max_together(self, fig1, fig1_seeds):
        config = SearchConfig(
            uni=True, labels=frozenset({"citizenOf", "parentOf", "founded", "investsIn"}), max_edges=5
        )
        results = MoLESPSearch().run(fig1, fig1_seeds, config)
        for result in results:
            assert result.size <= 5
            assert {fig1.edge(e).label for e in result.edges} <= config.labels

    def test_filters_identical_across_gam_variants_m2(self):
        graph, seeds = chain_graph(4)
        config = SearchConfig(max_edges=4, uni=True)
        gam = GAMSearch().run(graph, seeds, config)
        molesp = MoLESPSearch().run(graph, seeds, config)
        assert gam.edge_sets() == molesp.edge_sets()
