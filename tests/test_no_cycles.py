"""No reference cycles: a dropped graph and a finished search are freed by
reference counting alone.

A graph holds its frozen views (the ``freeze()`` memo, the MVCC base, the
memoized read view), and each view names the graph it came from as
``view_source`` — a weak back-reference, so the pair forms no cycle.  Each
test runs its action once to warm lazy imports and module caches, then runs
it again under ``gc.DEBUG_SAVEALL`` and asserts that the collector found
nothing to free: every object the action made was already gone.
"""

import gc
import weakref

import pytest

from repro.ctp import evaluate_ctp
from repro.graph import GraphBuilder, load_snapshot, save_snapshot
from repro.graph.datasets import figure1
from repro.query import evaluate_query
from repro.workloads import scale_free_graph


def _garbage_of(action):
    """Objects the collector had to free after ``action()`` (not counting warm-up)."""
    action()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _kinds(objects):
    return sorted({type(obj).__name__ for obj in objects})


def _graph_lifecycle(tmp_path):
    """Build, freeze, pin, ingest, snapshot, compact and drop one graph."""
    graph = scale_free_graph(300, 600, seed=3).graph
    frozen = graph.freeze()
    base_view = graph.read_view()
    node = graph.add_node("new", types=("Person",), rank=1)
    graph.add_edge(node, 0, "knows", since=2020)
    graph.set_edge_weight(1, 2.5)
    overlay = graph.read_view()
    assert frozen.view_source is graph and overlay.view_source is graph
    path = tmp_path / "g.snapshot"
    save_snapshot(overlay, path)
    loaded = load_snapshot(path)
    evaluate_ctp(overlay, [[0], [node]], "molesp", max_edges=3)
    graph.compact()
    graph.read_view()
    graph_ref = weakref.ref(graph)
    del graph, frozen, base_view, overlay, loaded
    return graph_ref


def test_a_dropped_graph_leaves_no_cycles(tmp_path):
    assert _garbage_of(lambda: _graph_lifecycle(tmp_path)) == []


def test_a_dropped_graph_is_freed_without_the_collector(tmp_path):
    gc.collect()
    gc.disable()
    try:
        graph_ref = _graph_lifecycle(tmp_path)
        assert graph_ref() is None
    finally:
        gc.enable()


def test_a_builder_graph_leaves_no_cycles():
    def build_and_drop():
        builder = GraphBuilder("people")
        builder.triple("Alice", "knows", "Bob", since=2020)
        builder.set_types("Alice", "Person")
        builder.graph.freeze()
        builder.graph.read_view()
        builder.triple("Carol", "knows", "Alice")
        builder.node("Carol", types=("Person",), age=30)
        builder.graph.read_view()

    assert _garbage_of(build_and_drop) == []


def test_a_view_outliving_its_graph_reads_no_source():
    graph = scale_free_graph(50, 80, seed=1).graph
    frozen = graph.freeze()
    graph.add_node("late")
    overlay = graph.read_view()
    del graph
    assert frozen.view_source is None and overlay.view_source is None
    assert frozen.num_nodes == 50 and overlay.num_nodes == 51


@pytest.fixture(scope="module")
def fig1():
    return figure1()


@pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
def test_one_evaluate_ctp_leaves_no_cycles(fig1, frozen):
    graph = fig1.freeze() if frozen else fig1
    seeds = [[fig1.find_node_by_label("USA")], [fig1.find_node_by_label("France")]]
    found = _garbage_of(lambda: evaluate_ctp(graph, seeds, "molesp"))
    assert found == [], _kinds(found)


@pytest.mark.parametrize("view", [False, True], ids=["graph", "read_view"])
def test_one_evaluate_query_leaves_no_cycles(fig1, view):
    graph = fig1.read_view() if view else fig1
    query = 'SELECT ?x ?w WHERE { ?x citizenOf ?c . CONNECT(?x, "France") AS ?w MAX 3 }'
    found = _garbage_of(lambda: evaluate_query(graph, query))
    assert found == [], _kinds(found)
