"""Shared fixtures for the test suite.

The randomized-graph helpers live in :mod:`repro.testing`; test modules
import them explicitly (``from repro.testing import ...``) rather than via
the bare ``conftest`` module name.  They are re-exported here only for
backward compatibility.
"""

from __future__ import annotations

from typing import Tuple

import pytest

from repro.graph.datasets import figure1, figure1_seed_sets
from repro.graph.graph import Graph
from repro.testing import (  # noqa: F401  (re-exported for back-compat)
    assert_all_valid,
    assert_same_results,
    random_graph,
    random_seed_sets,
)


@pytest.fixture
def fig1() -> Graph:
    return figure1()


@pytest.fixture
def fig1_seeds(fig1) -> Tuple[Tuple[int, ...], ...]:
    return figure1_seed_sets(fig1)


@pytest.fixture
def tiny_path_graph() -> Tuple[Graph, Tuple[Tuple[int, ...], ...]]:
    """A - x - B with singleton seed sets {A}, {B}."""
    graph = Graph("tiny-path")
    a = graph.add_node("A")
    x = graph.add_node("x")
    b = graph.add_node("B")
    graph.add_edge(a, x, "e")
    graph.add_edge(x, b, "e")
    return graph, ((a,), (b,))


