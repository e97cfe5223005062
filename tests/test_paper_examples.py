"""The worked examples of Sections 4.4-4.7, as executable tests.

These tests pin down the exact pruning phenomena the paper uses to motivate
each algorithm.  Guaranteed outcomes (the formal Properties) are asserted
unconditionally; incompleteness phenomena are order-dependent, so we assert
them under this implementation's deterministic smallest-first/FIFO order —
the same order the paper's experiments use (Section 5.4) — and at minimum
that the incomplete algorithm finds no *more* than the complete one.
"""

import pytest

from repro.ctp.bft import BFTSearch
from repro.ctp.esp import ESPSearch
from repro.ctp.gam import GAMSearch
from repro.ctp.lesp import LESPSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.graph.datasets import (
    figure1_edge,
    figure3,
    figure4,
    figure4_result_edges,
    figure5,
    figure6,
    figure7,
)
from repro.workloads.synthetic import chain_graph, comb_graph, line_graph


class TestSection2Figure1:
    """The running example: t_alpha and t_beta (Section 2)."""

    def test_t_alpha_and_t_beta_are_results(self, fig1, fig1_seeds):
        results = MoLESPSearch().run(fig1, fig1_seeds)
        edge_sets = results.edge_sets()
        t_alpha = frozenset(figure1_edge(k) for k in (10, 9, 11))
        t_beta = frozenset(figure1_edge(k) for k in (1, 2, 17, 16))
        assert t_alpha in edge_sets
        assert t_beta in edge_sets

    def test_t_beta_requires_bidirectional_search(self, fig1, fig1_seeds):
        """Under UNI, t_beta disappears (the paper's R3 motivation)."""
        from repro.ctp.config import SearchConfig

        results = MoLESPSearch().run(fig1, fig1_seeds, SearchConfig(uni=True))
        t_beta = frozenset(figure1_edge(k) for k in (1, 2, 17, 16))
        assert t_beta not in results.edge_sets()


class TestFigure2Chain:
    def test_exponential_result_count(self):
        for n in (2, 4, 7, 8):
            graph, seeds = chain_graph(n)
            results = MoLESPSearch().run(graph, seeds)
            assert len(results) == 2**n


class TestFigure3ESP:
    """Section 4.4: ESP may lose the only result; MoESP recovers it."""

    def test_gam_finds_the_result(self):
        graph, seeds = figure3()
        assert len(GAMSearch().run(graph, seeds)) == 1

    def test_esp_misses_under_smallest_first_order(self):
        graph, seeds = figure3()
        results = ESPSearch().run(graph, seeds)
        assert results.complete  # the search exhausted its space...
        assert len(results) == 0  # ...but pruning lost the single result

    def test_moesp_guaranteed(self):
        """The result is 2ps — Property 4 guarantees MoESP finds it."""
        graph, seeds = figure3()
        assert len(MoESPSearch().run(graph, seeds)) == 1

    def test_molesp_guaranteed(self):
        graph, seeds = figure3()
        assert len(MoLESPSearch().run(graph, seeds)) == 1


class TestFigure4MoESP:
    """Section 4.5: the 6-seed 2ps result of Figure 4 (Property 4)."""

    def test_moesp_finds_2ps_result(self):
        graph, seeds = figure4()
        target = figure4_result_edges(graph)
        assert target in MoESPSearch().run(graph, seeds).edge_sets()

    def test_molesp_finds_2ps_result(self):
        graph, seeds = figure4()
        target = figure4_result_edges(graph)
        assert target in MoLESPSearch().run(graph, seeds).edge_sets()

    def test_gam_complete_reference(self):
        graph, seeds = figure4()
        gam = GAMSearch().run(graph, seeds).edge_sets()
        moesp = MoESPSearch().run(graph, seeds).edge_sets()
        assert moesp <= gam


class TestFigure5LESP:
    """Section 4.6: the 3-simple star result; LESP's guarantee (Lemma 4.2)."""

    def test_only_result_is_the_star(self):
        graph, seeds = figure5()
        gam = GAMSearch().run(graph, seeds)
        assert len(gam) == 1
        assert gam.results[0].size == 6

    def test_lesp_guaranteed(self):
        """The result is a (3, x)-rooted merge — Lemma 4.2 / Property 6."""
        graph, seeds = figure5()
        assert len(LESPSearch().run(graph, seeds)) == 1

    def test_molesp_guaranteed(self):
        graph, seeds = figure5()
        assert len(MoLESPSearch().run(graph, seeds)) == 1


class TestFigure6FourSeeds:
    """Section 4.6 end: with 4 seed sets, results that are not rooted
    merges escape every pruning guarantee (Properties 7-9 do not apply).
    The incomplete variants may or may not find them — never more than GAM."""

    def test_gam_finds_the_result(self):
        graph, seeds = figure6()
        gam = GAMSearch().run(graph, seeds)
        assert len(gam) == 1
        assert gam.results[0].size == 8  # the whole graph

    def test_pruned_variants_bounded_by_gam(self):
        graph, seeds = figure6()
        gam = GAMSearch().run(graph, seeds).edge_sets()
        for algo in (ESPSearch(), MoESPSearch(), LESPSearch(), MoLESPSearch()):
            found = algo.run(graph, seeds).edge_sets()
            assert found <= gam

    def test_esp_and_moesp_miss_under_our_order(self):
        graph, seeds = figure6()
        assert len(ESPSearch().run(graph, seeds)) == 0
        assert len(MoESPSearch().run(graph, seeds)) == 0


class TestFigure7Property9:
    """A result whose decomposition consists of rooted merges sharing seeds
    is guaranteed for MoLESP (Property 9), for any m."""

    def test_molesp_guaranteed(self):
        graph, seeds = figure7()
        results = MoLESPSearch().run(graph, seeds)
        assert len(results) == 1
        assert results.results[0].size == 14

    def test_matches_complete_reference(self):
        graph, seeds = figure7()
        gam = GAMSearch().run(graph, seeds)
        molesp = MoLESPSearch().run(graph, seeds)
        assert molesp.edge_sets() == gam.edge_sets()


class TestSection541Shapes:
    """Sanity-check the experimental claims of Section 5.4 at tiny scale."""

    def test_esp_lesp_lose_results_on_line(self):
        graph, seeds = line_graph(3, 2)
        assert len(ESPSearch().run(graph, seeds)) == 0
        assert len(LESPSearch().run(graph, seeds)) == 0
        assert len(MoESPSearch().run(graph, seeds)) == 1
        assert len(MoLESPSearch().run(graph, seeds)) == 1

    def test_esp_lesp_lose_results_on_comb(self):
        graph, seeds = comb_graph(2, 2, 2)
        assert len(ESPSearch().run(graph, seeds)) == 0
        assert len(MoLESPSearch().run(graph, seeds)) == len(GAMSearch().run(graph, seeds))

    def test_moesp_and_molesp_same_provenances_on_line(self):
        """Paper: 'MoESP and MoLESP build the same number of provenances on
        Line and Comb graphs.'"""
        graph, seeds = line_graph(5, 3)
        moesp = MoESPSearch().run(graph, seeds)
        molesp = MoLESPSearch().run(graph, seeds)
        assert moesp.stats.provenances == molesp.stats.provenances

    def test_molesp_prunes_vs_gam_on_comb(self):
        graph, seeds = comb_graph(4, 2, 3)
        gam = GAMSearch().run(graph, seeds)
        molesp = MoLESPSearch().run(graph, seeds)
        assert molesp.edge_sets() == gam.edge_sets()
        assert molesp.stats.provenances < gam.stats.provenances

    def test_bft_slower_in_provenances_than_gam_on_comb(self):
        graph, seeds = comb_graph(3, 2, 4)
        bft = BFTSearch().run(graph, seeds)
        gam = GAMSearch().run(graph, seeds)
        assert bft.edge_sets() == gam.edge_sets()
        assert bft.stats.provenances > gam.stats.provenances
