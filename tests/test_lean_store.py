"""The lean graph store: a ``Graph`` allocates only for what an element carries.

- Nodes with the same types share one interned frozenset.
- A node or edge without properties stores ``None`` where its props dict
  would be (``props`` still reads as a dict), through build, freeze,
  snapshot round-trips, pickling, read views and searches.
- The node-label index does not exist until the first label lookup, and is
  maintained from then on.

``READS_DIGEST`` pins what callers read — ``node_labels()`` order,
``nodes_with_label``, ``nodes_with_type``, types and props of every element —
as recorded from the eager store this one replaced, so the diet changes no
read on any backend.
"""

import hashlib
import json
import pickle

import pytest

from repro.ctp import evaluate_ctp
from repro.graph import Graph, GraphBuilder, load_snapshot, save_snapshot
from repro.query import evaluate_query
from repro.workloads import scale_free_graph

#: sha256 of ``_reads`` per graph, recorded from the store this one replaced.
READS_DIGEST = {
    "scale_free": "43b7143b017e1490cfebf2338749546fce96d5cce31cec59836389ab72eb0846",
    "props": "3a8abe1a25a7c5691655509ec210f2addb455fe1736452e438580414d054592a",
}


def _scale_free():
    return scale_free_graph(2000, 4000, seed=5).graph


def _props_graph():
    """Repeated labels, four type sets, props on every third node and fifth edge."""
    graph = Graph("props")
    typesets = [(), ("a",), ("b",), ("a", "b")]
    for i in range(300):
        props = {"rank": i, "name": f"n{i}"} if i % 3 == 0 else {}
        graph.add_node(f"L{i % 37}", types=typesets[i % 4], **props)
    for i in range(600):
        props = {"since": 2000 + i} if i % 5 == 0 else {}
        graph.add_edge((i * 7) % 300, (i * 11 + 1) % 300, f"r{i % 4}", 1.0 + i % 3, **props)
    return graph


GRAPHS = {"scale_free": _scale_free, "props": _props_graph}


def _reads(graph):
    labels = graph.node_labels()
    type_names = sorted(set().union(*(node.types for node in graph.nodes())))
    return {
        "node_labels": labels,
        "nodes_with_label": [graph.nodes_with_label(label) for label in labels],
        "nodes_with_type": [graph.nodes_with_type(name) for name in type_names],
        "types": [sorted(node.types) for node in graph.nodes()],
        "node_props": [node.props for node in graph.nodes()],
        "node_property": [node.property("rank") for node in graph.nodes()],
        "edge_props": [edge.props for edge in graph.edges()],
        "edge_property": [edge.property("since") for edge in graph.edges()],
    }


def _digest(graph):
    return hashlib.sha256(json.dumps(_reads(graph), sort_keys=True).encode()).hexdigest()


def _assert_lean(graph):
    """Shared type sets, and no props dict on any bare element."""
    interned = {}
    for node in graph.nodes():
        assert interned.setdefault(node.types, node.types) is node.types, node
        assert node._props is None or node._props, node
    for edge in graph.edges():
        assert edge._props is None or edge._props, edge
    return len(interned)


def _bare(elements):
    return sum(element._props is None for element in elements)


@pytest.fixture(params=sorted(GRAPHS))
def named_graph(request):
    return request.param, GRAPHS[request.param]()


def test_nodes_with_the_same_types_share_one_frozenset(named_graph):
    _, graph = named_graph
    distinct = _assert_lean(graph)
    assert distinct == len({node.types for node in graph.nodes()})
    assert distinct <= 10


def test_bare_elements_hold_no_props_dict(named_graph):
    name, graph = named_graph
    _assert_lean(graph)
    if name == "props":
        assert _bare(graph.nodes()) == 200 and _bare(graph.edges()) == 480
        assert graph.node(3).props == {"rank": 3, "name": "n3"}
        assert graph.node(1).props == {} and graph.node(1)._props is None
    else:
        assert _bare(graph.nodes()) == graph.num_nodes and _bare(graph.edges()) == graph.num_edges


def test_the_diet_survives_every_representation(named_graph, tmp_path):
    _, graph = named_graph
    nodes, edges = _bare(graph.nodes()), _bare(graph.edges())
    frozen = graph.freeze()
    path = tmp_path / "g.snapshot"
    save_snapshot(graph, path)
    loaded = load_snapshot(path)
    views = [
        frozen,
        loaded,
        load_snapshot(path, use_mmap=False),
        pickle.loads(pickle.dumps(graph)),
        pickle.loads(pickle.dumps(frozen)),
        pickle.loads(pickle.dumps(loaded)),
        graph.read_view(),
    ]
    for view in views:
        _assert_lean(view)
        assert (_bare(view.nodes()), _bare(view.edges())) == (nodes, edges), view


def test_the_diet_survives_ingest_and_search(named_graph):
    _, graph = named_graph
    graph.read_view()
    new = graph.add_node("fresh", types=("a",))
    graph.add_edge(new, 0, "r0")
    graph.add_edge(0, new, "r1", tag="x")
    graph.set_edge_weight(0, 4.0)
    overlay = graph.read_view()
    for view in (graph, overlay, overlay.materialize()):
        _assert_lean(view)
        evaluate_ctp(view, [[0], [new]], "molesp", max_edges=3)
        _assert_lean(view)
    assert overlay.edge(graph.num_edges - 1).props == {"tag": "x"}
    assert overlay.edge(0).props == graph.edge(0).props
    evaluate_query(graph, 'SELECT ?w WHERE { CONNECT("fresh", "fresh") AS ?w MAX 2 }')
    _assert_lean(graph)
    _assert_lean(graph.read_view())


def test_the_label_index_waits_for_the_first_label_lookup(named_graph):
    _, graph = named_graph
    graph.freeze()
    graph.read_view()
    graph.add_node("before-lookup")
    evaluate_ctp(graph, [[0], [1]], "molesp", max_edges=3)
    assert graph._nodes_by_label is None
    assert graph.nodes_with_label("before-lookup") == [graph.num_nodes - 1]
    assert graph._nodes_by_label is not None


def test_the_label_index_is_maintained_after_it_exists():
    graph = _props_graph()
    graph.node_labels()
    graph.add_node("L5")
    graph.add_node("brand-new")
    rebuilt = Graph()
    for node in graph.nodes():
        rebuilt.add_node(node.label)
    assert graph._nodes_by_label == rebuilt._label_index()
    assert graph.node_labels() == rebuilt.node_labels()
    assert graph.nodes_with_label("L5")[-1] == 300
    assert graph.find_node_by_label("brand-new") == 301


def test_builder_merges_intern_their_type_sets():
    builder = GraphBuilder()
    builder.triple("Alice", "knows", "Bob")
    builder.set_types("Alice", "person")
    builder.set_types("Bob", "person")
    alice, bob = builder.ids_of("Alice", "Bob")
    assert builder.graph.node(alice).types is builder.graph.node(bob).types


def test_reads_match_the_recorded_store(named_graph, tmp_path):
    name, graph = named_graph
    want = READS_DIGEST[name]
    save_snapshot(graph, tmp_path / "g.snapshot")
    for view in (
        graph,
        graph.freeze(),
        load_snapshot(tmp_path / "g.snapshot"),
        pickle.loads(pickle.dumps(graph)),
        graph.read_view(),
    ):
        assert _digest(view) == want, view
