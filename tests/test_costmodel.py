"""The CTP cost model: golden feature vectors and estimator properties.

The scheduler (repro.query.parallel / repro.query.costmodel) relies on
exactly three properties of the estimate — monotone in seed-set size,
monotone in label cardinality (reachable edges), never negative — plus
picklability (an estimator may ride a job to a pool worker).  Hypothesis
pins the properties; golden vectors pin the feature extraction per
algorithm class so a silent formula change is visible in review.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.registry import ALGORITHMS
from repro.graph.graph import Graph
from repro.query.costmodel import (
    ALGORITHM_WEIGHTS,
    DEFAULT_ALGORITHM_WEIGHT,
    CostFeatures,
    CTPCostEstimator,
)

SETTINGS = settings(max_examples=60, deadline=None)


def labeled_graph() -> Graph:
    """4 nodes; 3 'a' edges, 2 'b' edges, 1 'c' edge."""
    graph = Graph("cost")
    for index in range(4):
        graph.add_node(f"n{index}")
    for src, dst in ((0, 1), (1, 2), (2, 3)):
        graph.add_edge(src, dst, "a")
    for src, dst in ((0, 2), (1, 3)):
        graph.add_edge(src, dst, "b")
    graph.add_edge(0, 3, "c")
    return graph


# ----------------------------------------------------------------------
# golden feature vectors
# ----------------------------------------------------------------------
def test_feature_vector_golden():
    graph = labeled_graph()
    estimator = CTPCostEstimator()
    features = estimator.features(graph, "bft", [2, 3], SearchConfig(max_edges=5))
    assert features.as_tuple() == ("bft", 2, 5, 6, 0, 5)


def test_feature_vector_wildcard_counts_whole_node_set():
    graph = labeled_graph()
    features = CTPCostEstimator().features(graph, "esp", [2, None], None)
    # The None (wildcard) set counts as all 4 nodes.
    assert features.as_tuple() == ("esp", 2, 6, 6, 0, None)


def test_feature_vector_label_filter_uses_label_index_cardinality():
    graph = labeled_graph()
    estimator = CTPCostEstimator()
    for labels, expected in ((frozenset({"a"}), 3), (frozenset({"b"}), 2), (frozenset({"a", "b"}), 5)):
        features = estimator.features(graph, "bft", [1], SearchConfig(labels=labels))
        assert features.reachable_edges == expected


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_registered_algorithm_has_a_weight(algorithm):
    assert algorithm in ALGORITHM_WEIGHTS


def test_golden_estimates_per_algorithm_class():
    """One pinned estimate per registry algorithm: same features, ratios
    exactly the class weights — the review-visible golden vector."""
    graph = labeled_graph()
    estimator = CTPCostEstimator()
    base = estimator.estimate(
        CostFeatures(algorithm="bft", num_seed_sets=2, total_seed_size=4,
                     reachable_edges=6, delta_size=0, max_edges=4)
    )
    for algorithm, weight in ALGORITHM_WEIGHTS.items():
        estimate = estimator.estimate_ctp(graph, algorithm, [2, 2], SearchConfig(max_edges=4))
        assert estimate == pytest.approx(base * weight)
    # The heuristic ESP family must sit below the complete families.
    assert ALGORITHM_WEIGHTS["esp"] < ALGORITHM_WEIGHTS["bft"] <= ALGORITHM_WEIGHTS["gam"]


def test_unknown_algorithm_assumes_worst_class():
    assert CTPCostEstimator().weight("user-registered") == DEFAULT_ALGORITHM_WEIGHT


# ----------------------------------------------------------------------
# estimator properties (Hypothesis)
# ----------------------------------------------------------------------
features_strategy = st.builds(
    CostFeatures,
    algorithm=st.sampled_from(sorted(ALGORITHM_WEIGHTS) + ["mystery"]),
    num_seed_sets=st.integers(min_value=0, max_value=8),
    total_seed_size=st.integers(min_value=0, max_value=10_000),
    reachable_edges=st.integers(min_value=0, max_value=1_000_000),
    delta_size=st.integers(min_value=0, max_value=10_000),
    max_edges=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
)


@SETTINGS
@given(features=features_strategy, bump=st.integers(min_value=1, max_value=1000))
def test_estimate_monotone_in_seed_size(features, bump):
    estimator = CTPCostEstimator()
    grown = CostFeatures(
        algorithm=features.algorithm,
        num_seed_sets=features.num_seed_sets,
        total_seed_size=features.total_seed_size + bump,
        reachable_edges=features.reachable_edges,
        delta_size=features.delta_size,
        max_edges=features.max_edges,
    )
    assert estimator.estimate(grown) > estimator.estimate(features) >= 0.0


@SETTINGS
@given(features=features_strategy, bump=st.integers(min_value=1, max_value=100_000))
def test_estimate_monotone_in_label_cardinality(features, bump):
    estimator = CTPCostEstimator()
    wider = CostFeatures(
        algorithm=features.algorithm,
        num_seed_sets=features.num_seed_sets,
        total_seed_size=features.total_seed_size,
        reachable_edges=features.reachable_edges + bump,
        delta_size=features.delta_size,
        max_edges=features.max_edges,
    )
    assert estimator.estimate(wider) > estimator.estimate(features) >= 0.0


@SETTINGS
@given(features=features_strategy)
def test_estimate_never_negative_and_picklable(features):
    estimator = CTPCostEstimator()
    assert estimator.estimate(features) >= 0.0
    clone = pickle.loads(pickle.dumps(estimator))
    assert clone.estimate(features) == estimator.estimate(features)
    assert pickle.loads(pickle.dumps(features)) == features


def test_wildcard_seed_sets_dominate_bound_ones():
    graph = labeled_graph()
    estimator = CTPCostEstimator()
    bound = estimator.estimate_ctp(graph, "bft", [1, 1], None)
    wild = estimator.estimate_ctp(graph, "bft", [1, None], None)
    assert wild > bound
    assert WILDCARD is not None  # the sentinel the sizes stand in for
