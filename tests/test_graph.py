"""Unit tests for the graph model (Definition 2.1)."""

import pytest

from repro.errors import GraphError
from repro.graph.graph import Graph


@pytest.fixture
def small() -> Graph:
    g = Graph("small")
    g.add_node("A", types=("person",), age=30)
    g.add_node("B", types=("person", "employee"))
    g.add_node("C")
    g.add_edge(0, 1, "knows", weight=2.0, since=2019)
    g.add_edge(1, 2, "worksAt")
    g.add_edge(2, 0, "employs")
    return g


class TestNodesAndEdges:
    def test_counts(self, small):
        assert small.num_nodes == 3
        assert small.num_edges == 3

    def test_dense_ids(self, small):
        assert [n.id for n in small.nodes()] == [0, 1, 2]
        assert [e.id for e in small.edges()] == [0, 1, 2]

    def test_node_accessor(self, small):
        node = small.node(0)
        assert node.label == "A"
        assert node.types == frozenset({"person"})

    def test_edge_accessor(self, small):
        edge = small.edge(0)
        assert edge.source == 0 and edge.target == 1
        assert edge.label == "knows"
        assert edge.weight == 2.0

    def test_node_properties(self, small):
        node = small.node(0)
        assert node.property("label") == "A"
        assert node.property("type") == frozenset({"person"})
        assert node.property("age") == 30
        assert node.property("missing") is None

    def test_edge_properties(self, small):
        edge = small.edge(0)
        assert edge.property("label") == "knows"
        assert edge.property("weight") == 2.0
        assert edge.property("since") == 2019
        assert edge.property("missing") is None

    def test_edge_other_endpoint(self, small):
        edge = small.edge(0)
        assert edge.other(0) == 1
        assert edge.other(1) == 0
        with pytest.raises(GraphError):
            edge.other(2)

    def test_unknown_ids_raise(self, small):
        with pytest.raises(GraphError):
            small.node(99)
        with pytest.raises(GraphError):
            small.edge(99)
        with pytest.raises(GraphError):
            small.add_edge(0, 99)

    def test_repr(self, small):
        assert "nodes=3" in repr(small)
        assert "knows" in repr(small.edge(0))
        assert "person" in repr(small.node(0))


class TestAdjacency:
    def test_bidirectional_entries(self, small):
        entries = small.adjacent(0)
        # A has outgoing 'knows' and incoming 'employs'
        assert {(e, o) for e, o, _ in entries} == {(0, 1), (2, 2)}
        directions = {e: outgoing for e, _, outgoing in entries}
        assert directions[0] is True
        assert directions[2] is False

    def test_degree(self, small):
        assert small.degree(0) == 2
        assert small.degree(1) == 2

    def test_neighbors_dedup(self):
        g = Graph()
        a, b = g.add_node("a"), g.add_node("b")
        g.add_edge(a, b, "x")
        g.add_edge(b, a, "y")  # parallel, opposite direction
        assert g.neighbors(a) == [b]
        assert g.degree(a) == 2

    def test_self_loop_appears_once(self):
        g = Graph()
        a = g.add_node("a")
        g.add_edge(a, a, "loop")
        assert g.degree(a) == 1
        ((edge_id, other, outgoing),) = g.adjacent(a)
        assert other == a and outgoing is True

    def test_in_out_edges(self, small):
        assert [e.id for e in small.out_edges(0)] == [0]
        assert [e.id for e in small.in_edges(0)] == [2]


class TestIndexes:
    def test_nodes_with_label(self, small):
        assert small.nodes_with_label("A") == [0]
        assert small.nodes_with_label("missing") == []

    def test_nodes_with_type(self, small):
        assert small.nodes_with_type("person") == [0, 1]
        assert small.nodes_with_type("employee") == [1]

    def test_edges_with_label(self, small):
        assert small.edges_with_label("knows") == [0]

    def test_label_listings(self, small):
        assert set(small.node_labels()) == {"A", "B", "C"}
        assert set(small.edge_labels()) == {"knows", "worksAt", "employs"}

    def test_find_nodes(self, small):
        found = small.find_nodes(lambda n: "person" in n.types)
        assert found == [0, 1]

    def test_find_node_by_label_unique(self, small):
        assert small.find_node_by_label("B") == 1

    def test_find_node_by_label_missing(self, small):
        with pytest.raises(GraphError):
            small.find_node_by_label("nope")

    def test_find_node_by_label_duplicate(self):
        g = Graph()
        g.add_node("dup")
        g.add_node("dup")
        with pytest.raises(GraphError):
            g.find_node_by_label("dup")


class TestDescribe:
    def test_describe_edge(self, small):
        assert small.describe_edge(0) == "A -[knows]-> B"

    def test_describe_tree_sorted(self, small):
        text = small.describe_tree([1, 0])
        assert text == "A -[knows]-> B; B -[worksAt]-> C"

    def test_describe_empty_tree(self, small):
        assert small.describe_tree([]) == "(single node)"
