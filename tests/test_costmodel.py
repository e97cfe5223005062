"""The CTP cost model: golden feature vectors, estimator properties, mode choice.

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
    PROCESS_COLD_THRESHOLD,
    PROCESS_WARM_THRESHOLD,
    THREAD_DISPATCH_THRESHOLD,
    CostFeatures,
    CTPCostEstimator,
    ScheduleReport,
    choose_mode,
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


# ----------------------------------------------------------------------
# auto mode choice
# ----------------------------------------------------------------------
def test_choose_mode_serial_below_thread_threshold():
    assert choose_mode(THREAD_DISPATCH_THRESHOLD - 1, 4, 4) == "serial"


def test_choose_mode_serial_when_nothing_to_overlap():
    assert choose_mode(1e9, 1, 8) == "serial"
    assert choose_mode(1e9, 8, 1) == "serial"


def test_choose_mode_thread_between_thresholds():
    assert choose_mode(THREAD_DISPATCH_THRESHOLD, 4, 4) == "thread"
    assert choose_mode(PROCESS_COLD_THRESHOLD - 1, 4, 4) == "thread"


def test_choose_mode_process_above_cold_threshold_without_pool():
    assert choose_mode(PROCESS_COLD_THRESHOLD, 4, 4) == "process"


class _FakePool:
    def __init__(self, warm: bool):
        self.closed = False
        self._warm = warm

    def dispatch_overhead(self) -> float:
        return PROCESS_WARM_THRESHOLD if self._warm else PROCESS_COLD_THRESHOLD


def test_choose_mode_warm_pool_lowers_the_process_bar():
    cost = PROCESS_WARM_THRESHOLD
    assert choose_mode(cost, 4, 4) == "thread"  # no pool: cold bar
    assert choose_mode(cost, 4, 4, pool=_FakePool(warm=True)) == "process"
    assert choose_mode(cost, 4, 4, pool=_FakePool(warm=False)) == "thread"


def test_choose_mode_explicit_overhead_wins_over_pool():
    assert choose_mode(100.0, 4, 4, pool=_FakePool(warm=True), pool_overhead=50.0) == "process"


# ----------------------------------------------------------------------
# offline fitting (CTPCostEstimator.fit)
# ----------------------------------------------------------------------
def _report(algorithms, estimates, actuals) -> ScheduleReport:
    return ScheduleReport(
        algorithms=list(algorithms),
        estimates=list(estimates),
        actual_seconds=list(actuals),
    )


def test_fit_golden_closed_form():
    """Actuals exactly 2x the estimates => the fitted weight doubles.

    base_i = estimate_i / w_old, actual_i = 2 * estimate_i, so the
    closed form sum(base*actual)/sum(base^2) collapses to 2 * w_old —
    an exact golden value, no tolerance needed.
    """
    estimator = CTPCostEstimator()
    reports = [
        _report(["bft", "bft"], [10.0, 30.0], [20.0, 60.0]),
        _report(["bft"], [5.0], [10.0]),
    ]
    fitted = estimator.fit(reports)
    assert fitted.weight("bft") == pytest.approx(2.0 * ALGORITHM_WEIGHTS["bft"])
    # Unsampled classes keep their checked-in weights.
    for algorithm, weight in ALGORITHM_WEIGHTS.items():
        if algorithm != "bft":
            assert fitted.weight(algorithm) == weight


def test_fit_least_squares_over_noisy_samples():
    """Noisy samples land on the analytic least-squares optimum."""
    estimator = CTPCostEstimator()
    estimates = [10.0, 20.0, 40.0]
    actuals = [11.0, 19.0, 42.0]
    fitted = estimator.fit([_report(["gam"] * 3, estimates, actuals)])
    w_old = ALGORITHM_WEIGHTS["gam"]
    bases = [e / w_old for e in estimates]
    expected = sum(b * a for b, a in zip(bases, actuals)) / sum(b * b for b in bases)
    assert fitted.weight("gam") == pytest.approx(expected)


def test_fit_ignores_degenerate_samples_and_empty_input():
    estimator = CTPCostEstimator()
    assert estimator.fit([]) == estimator
    # Zero/negative estimates or actuals carry no signal and are skipped.
    fitted = estimator.fit([_report(["esp", "esp"], [0.0, 10.0], [5.0, -1.0])])
    assert fitted == estimator


def test_fit_learns_a_weight_for_an_unlisted_algorithm():
    """A user-registered engine starts at the default weight and gets its
    own fitted entry once reports mention it."""
    estimator = CTPCostEstimator()
    fitted = estimator.fit([_report(["custom"], [8.0], [4.0])])
    base = 8.0 / DEFAULT_ALGORITHM_WEIGHT
    assert fitted.weight("custom") == pytest.approx(4.0 / base)
    # Fitting is stable: refitting with consistent data is a fixed point.
    refit = fitted.fit([_report(["custom"], [fitted.weight("custom") * base], [4.0])])
    assert refit.weight("custom") == pytest.approx(fitted.weight("custom"))


def test_fitted_estimator_predicts_seconds_on_linear_data():
    """After fitting, the estimator's output approximates measured seconds
    for the fitted class (weights absorb the cost-unit -> seconds scale)."""
    graph = labeled_graph()
    estimator = CTPCostEstimator()
    config = SearchConfig(max_edges=4)
    estimate = estimator.estimate_ctp(graph, "molesp", [2, 2], config)
    measured = 0.125  # seconds the CTP "actually" took
    fitted = estimator.fit([_report(["molesp"], [estimate], [measured])])
    assert fitted.estimate_ctp(graph, "molesp", [2, 2], config) == pytest.approx(measured)


def test_fit_result_is_frozen_and_picklable():
    fitted = CTPCostEstimator().fit([_report(["bft"], [4.0], [8.0])])
    assert pickle.loads(pickle.dumps(fitted)) == fitted
    with pytest.raises(Exception):
        fitted.weights = ()
