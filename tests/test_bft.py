"""Tests for the BFT family (Sections 4.1, 4.3)."""

import random

import pytest

from repro.testing import assert_all_valid, assert_same_results, random_graph, random_seed_sets
from repro.ctp.bft import BFTAMSearch, BFTMSearch, BFTSearch
from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.gam import GAMSearch
from repro.errors import SearchError
from repro.graph.graph import Graph
from repro.workloads.synthetic import chain_graph, line_graph, star_graph


class TestBFTCompleteness:
    def test_figure1(self, fig1, fig1_seeds):
        bft = BFTSearch().run(fig1, fig1_seeds)
        gam = GAMSearch().run(fig1, fig1_seeds)
        assert_same_results(bft, gam)
        assert len(bft) == 64

    def test_chain_exponential(self):
        graph, seeds = chain_graph(6)
        results = BFTSearch().run(graph, seeds)
        assert len(results) == 64

    def test_star(self):
        graph, seeds = star_graph(4, 2)
        results = BFTSearch().run(graph, seeds)
        assert len(results) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_match_gam(self, seed):
        rng = random.Random(seed + 100)
        graph = random_graph(rng, num_nodes=7, num_edges=10)
        seed_sets = random_seed_sets(rng, graph, m=2)
        assert_same_results(BFTSearch().run(graph, seed_sets), GAMSearch().run(graph, seed_sets))


class TestBFTVariantsAgree:
    """BFT-M and BFT-AM are complete too: same result sets as BFT."""

    @pytest.mark.parametrize("algo_class", [BFTMSearch, BFTAMSearch])
    def test_figure1(self, fig1, fig1_seeds, algo_class):
        variant = algo_class().run(fig1, fig1_seeds)
        baseline = BFTSearch().run(fig1, fig1_seeds)
        assert_same_results(variant, baseline)

    @pytest.mark.parametrize("algo_class", [BFTMSearch, BFTAMSearch])
    @pytest.mark.parametrize("seed", range(3))
    def test_random(self, algo_class, seed):
        rng = random.Random(seed + 37)
        graph = random_graph(rng, num_nodes=7, num_edges=9)
        seed_sets = random_seed_sets(rng, graph, m=3)
        assert_same_results(algo_class().run(graph, seed_sets), BFTSearch().run(graph, seed_sets))


class TestMinimization:
    def test_dead_branch_is_stripped(self):
        """The paper's Section 4.1 example: BFT grows a useless edge, then
        minimization removes it before reporting."""
        g = Graph()
        a = g.add_node("A")
        x = g.add_node("x")
        b = g.add_node("B")
        dead = g.add_node("dead")
        g.add_edge(a, x, "e")
        g.add_edge(x, b, "e")
        g.add_edge(x, dead, "e")
        results = BFTSearch().run(g, [[a], [b]])
        assert len(results) == 1
        (result,) = results.results
        assert dead not in result.nodes
        assert result.size == 2
        assert_all_valid(g, results, [[a], [b]])

    def test_results_valid_after_minimization(self, fig1, fig1_seeds):
        results = BFTSearch().run(fig1, fig1_seeds)
        assert_all_valid(fig1, results, fig1_seeds)


class TestBFTConfig:
    def test_wildcard_rejected(self, fig1):
        with pytest.raises(SearchError):
            BFTSearch().run(fig1, [[0], WILDCARD])

    def test_max_edges(self, fig1, fig1_seeds):
        results = BFTSearch().run(fig1, fig1_seeds, SearchConfig(max_edges=3))
        assert all(r.size <= 3 for r in results)
        assert len(results) > 0

    def test_limit(self, fig1, fig1_seeds):
        results = BFTSearch().run(fig1, fig1_seeds, SearchConfig(limit=2))
        assert len(results) == 2
        assert not results.complete

    @pytest.mark.parametrize("algo_class", [BFTMSearch, BFTAMSearch])
    def test_merged_trees_trip_the_max_trees_valve(self, fig1, fig1_seeds, algo_class):
        # A merged tree counts against max_trees as a grown one does: the
        # search stops at the 41st tree kept, as GAM and MoLESP do.
        results = algo_class().run(fig1, fig1_seeds, SearchConfig(max_trees=40))
        assert not results.complete
        assert results.stats.trees_kept == 41

    def test_labels(self, fig1, fig1_seeds):
        allowed = frozenset({"citizenOf", "parentOf", "founded", "investsIn"})
        results = BFTSearch().run(fig1, fig1_seeds, SearchConfig(labels=allowed))
        for result in results:
            assert {fig1.edge(e).label for e in result.edges} <= allowed

    def test_uni_matches_gam_uni_on_star(self):
        # star arms point away from the center, so the single result is an
        # arborescence: BFT's UNI post-filter and GAM's pushed UNI agree
        graph, seeds = star_graph(4, 2)
        uni_bft = BFTSearch().run(graph, seeds, SearchConfig(uni=True))
        uni_gam = GAMSearch().run(graph, seeds, SearchConfig(uni=True))
        assert len(uni_bft) == 1
        assert uni_bft.edge_sets() == uni_gam.edge_sets()

    def test_uni_empty_when_no_arborescence_exists(self, fig1, fig1_seeds):
        # none of the 64 Q1 connections is unidirectional in Figure 1
        uni = BFTSearch().run(fig1, fig1_seeds, SearchConfig(uni=True))
        uni_gam = GAMSearch().run(fig1, fig1_seeds, SearchConfig(uni=True))
        assert uni.edge_sets() == uni_gam.edge_sets()

    def test_timeout_partial(self):
        graph, seeds = chain_graph(14)
        results = BFTSearch().run(graph, seeds, SearchConfig(timeout=0.005))
        assert not results.complete
        assert results.timed_out


class TestCostOrdering:
    def test_bft_builds_more_trees_than_gam(self, fig1, fig1_seeds):
        """Figure 10's root cause: the BFT family builds the same tree in
        many more ways and keeps non-minimal trees around."""
        bft = BFTSearch().run(fig1, fig1_seeds)
        gam = GAMSearch().run(fig1, fig1_seeds)
        assert bft.stats.provenances > gam.stats.provenances

    def test_star_graph_ordering(self):
        # branching topologies show the BFT blow-up even at tiny scale
        graph, seeds = star_graph(5, 3)
        bft = BFTSearch().run(graph, seeds)
        gam = GAMSearch().run(graph, seeds)
        assert_same_results(bft, gam)
        assert bft.stats.provenances > gam.stats.provenances

    def test_line_graph_same_results(self):
        # on path-shaped graphs BFT's unrooted identity builds *fewer*
        # trees than GAM's rooted one — its cost there is the repeated
        # grow attempts and minimization, not the tree count
        graph, seeds = line_graph(5, 2)
        bft = BFTSearch().run(graph, seeds)
        gam = GAMSearch().run(graph, seeds)
        assert_same_results(bft, gam)
        assert bft.stats.grows > gam.stats.grows
