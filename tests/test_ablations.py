"""Tests for the two ablation switches argued in the ``repro.ctp.engine`` docstring.

These pin down *why* the library departs from two literal readings of the
paper's pseudocode — the departures are requirements, not preferences.
"""

import pytest

from repro.ctp.config import SearchConfig
from repro.ctp.gam import GAMSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.graph.datasets import figure3, figure4, figure4_result_edges
from repro.workloads.synthetic import comb_graph, line_graph, star_graph


class TestStrictMerge2:
    def test_breaks_gam_completeness_on_figure4(self):
        """Figure 4's results branch at seed B; the literal Merge2 blocks
        every merge at B, so strict GAM loses all of them — contradicting
        Property 1 and justifying the relaxed reading."""
        graph, seeds = figure4()
        relaxed = GAMSearch().run(graph, seeds)
        strict = GAMSearch().run(graph, seeds, SearchConfig(strict_merge2=True))
        assert len(relaxed) == 4
        assert len(strict) == 0

    def test_breaks_completeness_on_comb(self):
        graph, seeds = comb_graph(3, 2, 3)
        relaxed = GAMSearch().run(graph, seeds)
        strict = GAMSearch().run(graph, seeds, SearchConfig(strict_merge2=True))
        assert len(relaxed) == 1
        assert len(strict) == 0

    def test_agrees_when_no_seed_branches(self):
        """On Star graphs every merge happens at the non-seed center, so
        both readings coincide."""
        graph, seeds = star_graph(5, 2)
        relaxed = GAMSearch().run(graph, seeds)
        strict = GAMSearch().run(graph, seeds, SearchConfig(strict_merge2=True))
        assert relaxed.edge_sets() == strict.edge_sets()

    def test_strict_never_finds_more(self):
        for graph, seeds in (figure3(), line_graph(4, 2), star_graph(4, 3)):
            relaxed = MoLESPSearch().run(graph, seeds)
            strict = MoLESPSearch().run(graph, seeds, SearchConfig(strict_merge2=True))
            assert strict.edge_sets() <= relaxed.edge_sets()


class TestMoInjectAlways:
    @pytest.mark.parametrize(
        "make",
        [figure4, lambda: line_graph(5, 2), lambda: comb_graph(3, 2, 3), lambda: star_graph(5, 2)],
    )
    def test_same_results_more_work(self, make):
        graph, seeds = make()
        gain_only = MoLESPSearch().run(graph, seeds)
        always = MoLESPSearch().run(graph, seeds, SearchConfig(mo_inject_always=True))
        assert always.edge_sets() == gain_only.edge_sets()
        assert always.stats.provenances > gain_only.stats.provenances

    def test_minimality_guard_active(self):
        """Without the guard, literal injection reports non-minimal trees;
        the guard counts them as filter-pruned."""
        graph, seeds = figure4()
        always = MoLESPSearch().run(graph, seeds, SearchConfig(mo_inject_always=True))
        assert always.stats.pruned_filters > 0
        target = figure4_result_edges(graph)
        assert target in always.edge_sets()

    def test_moesp_variant_too(self):
        graph, seeds = figure3()
        gain_only = MoESPSearch().run(graph, seeds)
        always = MoESPSearch().run(graph, seeds, SearchConfig(mo_inject_always=True))
        assert always.edge_sets() == gain_only.edge_sets()
