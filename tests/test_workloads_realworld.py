"""Checks that the real-world substitutes preserve what matters (DESIGN §3)."""

import hashlib
import random

import pytest

from repro.errors import WorkloadError
from repro.graph.stats import connected_components, graph_stats
from repro.query.evaluator import evaluate_query
from repro.query.parser import parse_query
from repro.workloads.realworld import (
    EDGE_LABELS,
    PAPER_M_DISTRIBUTION,
    _weighted_picker,
    _zipf_weights,
    dbpedia_like,
    j1_query,
    j2_query,
    j3_query,
    sample_ctp_workload,
    scale_free_graph,
    yago_like,
)


@pytest.fixture(scope="module")
def dataset():
    return yago_like(scale=0.05)


class TestGenerator:
    def test_connected(self, dataset):
        assert len(connected_components(dataset.graph)) == 1

    def test_sizes(self, dataset):
        assert dataset.graph.num_nodes == 400
        assert dataset.graph.num_edges == 1200

    def test_degree_skew(self, dataset):
        """Preferential attachment must produce hubs: max degree far above
        the mean, like real knowledge graphs."""
        stats = graph_stats(dataset.graph)
        assert stats.max_degree > 8 * stats.mean_degree

    def test_label_skew(self, dataset):
        """Edge label usage follows a Zipf-like distribution."""
        from collections import Counter

        counts = Counter(edge.label for edge in dataset.graph.edges())
        ordered = [c for _, c in counts.most_common()]
        assert ordered[0] > 3 * ordered[-1]

    def test_every_node_typed(self, dataset):
        assert all(dataset.graph.node(n).types for n in dataset.graph.node_ids())
        assert sum(len(v) for v in dataset.nodes_by_type.values()) == dataset.graph.num_nodes

    def test_deterministic_by_seed(self):
        a = scale_free_graph(100, 300, seed=5)
        b = scale_free_graph(100, 300, seed=5)
        triples_a = [(e.source, e.label, e.target) for e in a.graph.edges()]
        triples_b = [(e.source, e.label, e.target) for e in b.graph.edges()]
        assert triples_a == triples_b

    def test_generated_data_is_pinned(self):
        """Node types, edge endpoints and labels of one fixed data set,
        digested with the generator as it was *before* the per-draw
        ``rng.choices`` was replaced by a precomputed picker:
        ``benchmarks/e2e/expected.json`` pins result rows on these data."""
        dataset = scale_free_graph(2000, 4000, seed=42)
        digest = hashlib.sha256()
        for node in dataset.graph.nodes():
            digest.update(repr((node.id, node.label, sorted(node.types))).encode())
        for edge in dataset.graph.edges():
            digest.update(repr((edge.id, edge.source, edge.target, edge.label, edge.weight)).encode())
        digest.update(repr(sorted(dataset.nodes_by_type.items())).encode())
        assert digest.hexdigest() == (
            "788c0d2e6a850911c2c3f037a7215dbfa93d14e9eb0ff94a808c0996900d1650"
        )

    def test_picker_draws_what_random_choices_draws(self):
        weights = _zipf_weights(len(EDGE_LABELS))
        reference = random.Random(11)
        pick = _weighted_picker(random.Random(11), EDGE_LABELS, weights)
        assert [pick() for _ in range(2000)] == [
            reference.choices(EDGE_LABELS, weights=weights)[0] for _ in range(2000)
        ]

    def test_different_seeds_differ(self):
        a = scale_free_graph(100, 300, seed=5)
        b = scale_free_graph(100, 300, seed=6)
        triples_a = [(e.source, e.label, e.target) for e in a.graph.edges()]
        triples_b = [(e.source, e.label, e.target) for e in b.graph.edges()]
        assert triples_a != triples_b

    def test_dbpedia_larger_than_yago(self):
        y = yago_like(scale=0.02)
        d = dbpedia_like(scale=0.02)
        assert d.graph.num_edges > y.graph.num_edges

    def test_bad_params(self):
        with pytest.raises(WorkloadError):
            scale_free_graph(1, 5)
        with pytest.raises(WorkloadError):
            scale_free_graph(10, 3)


class TestWorkloadSampler:
    def test_paper_distribution(self, dataset):
        workload = sample_ctp_workload(dataset.graph, scale=1.0, seed=1)
        from collections import Counter

        by_m = Counter(len(ctp) for ctp in workload)
        assert dict(by_m) == PAPER_M_DISTRIBUTION

    def test_scaled_distribution_keeps_all_m(self, dataset):
        workload = sample_ctp_workload(dataset.graph, scale=0.02, seed=1)
        by_m = {len(ctp) for ctp in workload}
        assert by_m == {2, 3, 4, 5, 6}

    def test_seed_sets_disjoint(self, dataset):
        workload = sample_ctp_workload(dataset.graph, scale=0.05, seed=2)
        for ctp in workload:
            all_nodes = [n for seed_set in ctp for n in seed_set]
            assert len(all_nodes) == len(set(all_nodes))

    def test_ctps_usually_have_results(self, dataset):
        """Seeds are sampled inside a BFS ball, so most CTPs are solvable."""
        from repro.ctp.molesp import MoLESPSearch
        from repro.ctp.config import SearchConfig

        workload = sample_ctp_workload(dataset.graph, scale=0.03, seed=3)
        solved = 0
        for ctp in workload:
            results = MoLESPSearch().run(dataset.graph, ctp, SearchConfig(limit=1, timeout=5.0))
            solved += bool(len(results))
        assert solved >= len(workload) * 0.6


class TestJQueries:
    def test_queries_parse(self):
        for text in (j1_query(), j2_query(), j3_query()):
            query = parse_query(text)
            assert query.ctps

    def test_j1_shape(self):
        query = parse_query(j1_query())
        assert len(query.bgps()) == 1 or len(query.bgps()) == 2
        assert len(query.ctps) == 2

    def test_j2_has_one_ctp(self):
        query = parse_query(j2_query())
        assert len(query.ctps) == 1

    def test_j3_wildcard(self):
        query = parse_query(j3_query())
        (ctp,) = query.ctps
        assert any(seed.is_empty for seed in ctp.seeds)

    def test_j2_runs_with_large_seed_set(self, dataset):
        result = evaluate_query(dataset.graph, j2_query("MAX 2 TIMEOUT 10"), default_timeout=10.0)
        report = result.ctp_reports[0]
        sizes = [s for s in report.seed_set_sizes if s is not None]
        assert max(sizes) > 20  # the "very large seed set" of J2

    def test_j3_runs_with_wildcard(self, dataset):
        result = evaluate_query(dataset.graph, j3_query("MAX 2 LIMIT 50 TIMEOUT 10"), default_timeout=10.0)
        report = result.ctp_reports[0]
        assert None in report.seed_set_sizes
        assert len(report.result_set) == 50
