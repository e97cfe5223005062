"""Deterministic test/bench helpers: random graphs and result validation.

Historically these lived in ``tests/conftest.py`` and test modules pulled
them in with ``from conftest import ...``.  That import is ambiguous when
pytest runs from the repository root: ``benchmarks/conftest.py`` is loaded
first (directories are collected alphabetically) and registers itself in
``sys.modules`` under the bare name ``conftest``, shadowing the tests'
helpers and breaking collection.  The helpers are therefore packaged here,
importable unambiguously by tests, benchmarks, and library users alike.
"""

from __future__ import annotations

import hashlib
import random
import sys
from concurrent.futures import Future
from typing import Any, Dict, List, Sequence, Tuple

from repro.ctp.results import CTPResultSet, ResultTree, validate_result
from repro.errors import PoolError
from repro.graph.graph import Graph
from repro.query.parallel import InlineExecutor as _InlineExecutor
from repro.query.pool import WorkerPool


class FakeClock:
    """A manually-advanced monotonic clock for wall-time-free tests.

    Drop-in for the ``clock`` parameter of
    :class:`repro.query.costmodel.DeadlineLedger`: call it to read the
    time, :meth:`advance` to move it.  Scheduling decisions (build
    budgets, rebalance grants) become exact arithmetic instead of races
    against the host's scheduler.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> "FakeClock":
        if seconds < 0:
            raise ValueError("FakeClock cannot run backwards")
        self.now += seconds
        return self


class InlineExecutor(_InlineExecutor):
    """The dispatch layer's inline executor, recording what it was handed.

    Every submit runs inline, in order (the serial path of
    :mod:`repro.query.parallel`, not a stand-in for it), and the exact
    submission order lands in :attr:`submitted` — so tests can pin
    *scheduling decisions* (CTP-order starts, rebalance timing) without
    threads, wall clocks, or flaky completion races.
    """

    def __init__(self) -> None:
        #: ``(fn, args)`` per submit, in submission order.
        self.submitted: List[Tuple[Any, Tuple[Any, ...]]] = []

    def submit(self, fn: Any, *args: Any, **kwargs: Any) -> "Future[Any]":
        self.submitted.append((fn, args))
        return super().submit(fn, *args, **kwargs)


class _FallbackPool(WorkerPool):
    """A pool that can never be prepared for a fan-out."""

    def _resolve(self, graph: Any) -> Any:
        raise PoolError("fallback_pool never runs a worker")


def fallback_pool(graph: Any, workers: int = 2) -> WorkerPool:
    """A :class:`~repro.query.pool.WorkerPool` that cannot be prepared.

    Every dispatch through it takes the process → serial fallback (the
    jobs run inline, stamped ``"process->serial"``, under a deadline
    ledger cut for ``workers`` slots and then re-cut for one) without
    spawning a worker or writing a snapshot.  Close it like any pool.
    """
    return _FallbackPool(graph, workers=workers)


#: Containers :func:`approx_bytes` descends into element-wise.
_SIZED_CONTAINERS = (list, tuple, set, frozenset)
#: Leaves whose ``getsizeof`` is already their full footprint.
_ATOMIC_TYPES = (str, bytes, bytearray, int, float, complex, bool, type(None))


def approx_bytes(value: Any) -> int:
    """Approximate deep memory footprint of ``value`` in bytes.

    A ``sys.getsizeof`` walk over containers, dicts, and object attributes
    (``__dict__`` and ``__slots__``), counting each sub-object once by
    identity; exotic C-level layouts fall back to their shallow size.
    Tests size the edge-set pool with it — a stable signal, not an
    accountant.  The walk keeps an explicit stack instead of recursing, so
    a deeply nested value (a few thousand levels of tuples) is bounded by
    memory, not by ``sys.getrecursionlimit()``.
    """
    seen = set()
    total = 0
    stack = [value]
    while stack:
        obj = stack.pop()
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        total += sys.getsizeof(obj)
        if isinstance(obj, _ATOMIC_TYPES):
            continue
        if isinstance(obj, dict):
            for key, item in obj.items():
                stack.append(key)
                stack.append(item)
            continue
        if isinstance(obj, _SIZED_CONTAINERS):
            stack.extend(obj)
            continue
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            stack.append(attrs)
        for name in getattr(type(obj), "__slots__", ()):
            try:
                stack.append(getattr(obj, name))
            except AttributeError:
                continue
    return total


def random_graph(
    rng: random.Random,
    num_nodes: int,
    num_edges: int,
    num_labels: int = 3,
) -> Graph:
    """A random connected multigraph for cross-checking algorithms.

    A random spanning tree guarantees connectivity; the remaining edges are
    uniform random pairs (parallel edges allowed, self-loops skipped).
    Deterministic for a given ``rng`` state.
    """
    graph = Graph("random")
    for index in range(num_nodes):
        graph.add_node(f"n{index}")
    for node in range(1, num_nodes):
        partner = rng.randrange(node)
        label = f"l{rng.randrange(num_labels)}"
        if rng.random() < 0.5:
            graph.add_edge(node, partner, label)
        else:
            graph.add_edge(partner, node, label)
    for _ in range(max(0, num_edges - (num_nodes - 1))):
        a = rng.randrange(num_nodes)
        b = rng.randrange(num_nodes)
        if a == b:
            continue
        label = f"l{rng.randrange(num_labels)}"
        graph.add_edge(a, b, label)
    return graph


def rich_graphs(max_nodes: int = 7, max_edges: int = 12) -> Any:
    """Hypothesis strategy: small graphs using every kind of metadata.

    Unicode (lone surrogates included), empty and duplicate node and edge
    labels; untyped, single- and multi-type nodes; node and edge property
    dicts; parallel edges, self-loops, non-default weights, and weights
    rewritten afterwards through :meth:`Graph.set_edge_weight`.  What a
    storage format or a freeze must carry over, as opposed to the
    connected plain-label graphs of :func:`random_graph` that the search
    algorithms are cross-checked on.  (Hypothesis is imported on use: the
    library does not depend on it.)
    """
    from hypothesis import strategies as st

    labels = st.sampled_from(["", "a", "b", "A", "é", "名前", "a b", "\U0001f600", "\ud800", "x\x00y"])
    props = st.dictionaries(
        st.sampled_from(["k", "age", "tags"]),
        st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2)),
        max_size=2,
    )
    types = st.frozensets(st.sampled_from(["t", "person", "engineer", "型"]), max_size=3)
    weights = st.sampled_from([0.25, 0.5, 1.0, 1.25, 3.0])

    @st.composite
    def build(draw: Any) -> Graph:
        graph = Graph(draw(labels))
        for _ in range(draw(st.integers(min_value=0, max_value=max_nodes))):
            graph.add_node(draw(labels), draw(types), **draw(props))
        if graph.num_nodes:
            endpoint = st.integers(min_value=0, max_value=graph.num_nodes - 1)
            for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
                graph.add_edge(
                    draw(endpoint), draw(endpoint), draw(labels), draw(weights), **draw(props)
                )
        if graph.num_edges:
            edge = st.integers(min_value=0, max_value=graph.num_edges - 1)
            for edge_id in draw(st.lists(edge, max_size=3)):
                graph.set_edge_weight(edge_id, draw(weights))
        return graph

    return build()


def random_seed_sets(
    rng: random.Random,
    graph: Graph,
    m: int,
    max_size: int = 2,
) -> Tuple[Tuple[int, ...], ...]:
    """m pairwise-disjoint random seed sets."""
    nodes = list(graph.node_ids())
    rng.shuffle(nodes)
    seed_sets: List[Tuple[int, ...]] = []
    cursor = 0
    for _ in range(m):
        size = rng.randint(1, max_size)
        seed_sets.append(tuple(nodes[cursor : cursor + size]))
        cursor += size
    return tuple(seed_sets)


def assert_all_valid(graph: Graph, results: CTPResultSet, seed_sets: Sequence, wildcard=()):
    """Every result satisfies Definition 2.8 (tree, one seed/set, minimal)."""
    for result in results:
        problems = validate_result(graph, result, seed_sets, wildcard)
        assert not problems, f"invalid result {sorted(result.edges)}: {problems}"


def assert_same_results(left: CTPResultSet, right: CTPResultSet):
    """Two complete algorithms must return the same set of edge sets."""
    assert left.edge_sets() == right.edge_sets()


def _tree_key(tree: ResultTree) -> Tuple[Any, ...]:
    return (sorted(tree.edges), tree.seeds, round(tree.weight, 9))


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def result_set_record(result_set: CTPResultSet) -> Dict[str, Any]:
    """Golden-file form of one CTP evaluation: its results in emission
    order (as a digest) and the two counters a different search would move."""
    return {
        "results": len(result_set),
        "sha256": _digest([_tree_key(tree) for tree in result_set]),
        "provenances": result_set.stats.provenances,
        "results_found": result_set.stats.results_found,
    }


def query_record(result: Any) -> Dict[str, Any]:
    """Golden-file form of a :class:`~repro.query.evaluator.QueryResult`:
    columns, row count, digest of the rows in order, per-CTP records."""
    rows = [
        tuple(_tree_key(value) if isinstance(value, ResultTree) else value for value in row)
        for row in result.rows
    ]
    return {
        "columns": list(result.columns),
        "rows": len(rows),
        "sha256": _digest(rows),
        "ctps": [result_set_record(report.result_set) for report in result.ctp_reports],
    }
