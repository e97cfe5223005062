"""The error hierarchy and registry behaviour."""

import pytest

from repro.ctp.registry import ALGORITHMS, COMPLETE_ALGORITHMS, evaluate_ctp, get_algorithm
from repro.errors import (
    ConfigError,
    EvaluationError,
    GraphError,
    ParseError,
    QueryError,
    ReproError,
    SearchError,
    SnapshotError,
    StorageError,
    ValidationError,
    WorkloadError,
)


def test_hierarchy():
    for error_class in (
        GraphError,
        StorageError,
        QueryError,
        SearchError,
        WorkloadError,
    ):
        assert issubclass(error_class, ReproError)
    assert issubclass(ParseError, QueryError)
    assert issubclass(ValidationError, QueryError)
    assert issubclass(EvaluationError, QueryError)
    assert issubclass(SnapshotError, GraphError)
    # ConfigError keeps historical `except ValueError` call sites working
    # while still being catchable as a library error.
    assert issubclass(ConfigError, SearchError)
    assert issubclass(ConfigError, ValueError)


def test_parse_error_position_rendering():
    error = ParseError("bad token", line=4)
    assert "line 4" in str(error)
    error = ParseError("bad char", position=17)
    assert "offset 17" in str(error)


def test_registry_contents():
    assert set(ALGORITHMS) == {"bft", "bft-m", "bft-am", "gam", "esp", "moesp", "lesp", "molesp"}
    for name in COMPLETE_ALGORITHMS:
        assert name in ALGORITHMS


def test_get_algorithm_case_insensitive():
    assert get_algorithm("MoLESP").name == "molesp"


def test_get_algorithm_unknown():
    with pytest.raises(SearchError) as info:
        get_algorithm("dijkstra")
    assert "known:" in str(info.value)


def test_evaluate_ctp_smoke(fig1, fig1_seeds):
    results = evaluate_ctp(fig1, fig1_seeds, "esp")
    assert results.algorithm == "esp"


@pytest.mark.parametrize(
    "bad",
    [
        {"balanced_queues": "sometimes"},
        {"balanced_queues": 1},
        {"max_trees": 0},
        {"max_trees": -5},
        {"balance_ratio": 0},
        {"balance_ratio": -1},
        {"parallelism": True},
    ],
    ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))),
)
def test_search_config_rejects_out_of_range_values(bad):
    from repro.ctp.config import SearchConfig

    with pytest.raises(ConfigError, match=next(iter(bad))):
        SearchConfig(**bad)


def test_search_config_accepts_boundary_values():
    from repro.ctp.config import SearchConfig

    for mode in (True, False, "auto"):
        SearchConfig(balanced_queues=mode)
    SearchConfig(max_trees=1, balance_ratio=0.5, parallelism=1)
