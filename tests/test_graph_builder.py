"""Tests for label-oriented graph construction."""

import pytest

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder, graph_from_triples


class TestGraphBuilder:
    def test_triple_creates_nodes(self):
        b = GraphBuilder()
        edge_id = b.triple("Alice", "knows", "Bob")
        assert edge_id == 0
        assert b.graph.num_nodes == 2
        assert b.graph.node(b.id_of("Alice")).label == "Alice"

    def test_node_reuse_by_label(self):
        b = GraphBuilder()
        first = b.node("Alice")
        second = b.node("Alice")
        assert first == second
        assert b.graph.num_nodes == 1

    def test_types_merge_on_later_calls(self):
        b = GraphBuilder()
        b.node("Alice", types=("person",))
        b.node("Alice", types=("entrepreneur",))
        assert b.graph.node(b.id_of("Alice")).types == frozenset({"person", "entrepreneur"})
        # the type index picks up late-added types, without duplicates
        assert b.graph.nodes_with_type("entrepreneur") == [b.id_of("Alice")]
        b.node("Alice", types=("entrepreneur",))
        assert b.graph.nodes_with_type("entrepreneur") == [b.id_of("Alice")]

    def test_props_merge(self):
        b = GraphBuilder()
        b.node("Alice", age=30)
        b.node("Alice", city="Paris")
        node = b.graph.node(b.id_of("Alice"))
        assert node.props == {"age": 30, "city": "Paris"}

    def test_set_types(self):
        b = GraphBuilder()
        b.set_types("Alice", "person", "founder")
        assert b.graph.node(b.id_of("Alice")).types == frozenset({"person", "founder"})

    def test_triples_bulk(self):
        b = GraphBuilder()
        b.triples([("a", "x", "b"), ("b", "y", "c")])
        assert b.graph.num_edges == 2
        assert b.graph.num_nodes == 3

    def test_ids_of(self):
        b = GraphBuilder()
        b.triple("a", "x", "b")
        assert b.ids_of("a", "b") == (b.id_of("a"), b.id_of("b"))

    def test_id_of_missing_raises(self):
        b = GraphBuilder()
        with pytest.raises(KeyError):
            b.id_of("ghost")

    def test_edge_weight_and_props(self):
        b = GraphBuilder()
        edge_id = b.triple("a", "x", "b", weight=4.5, year=2020)
        edge = b.graph.edge(edge_id)
        assert edge.weight == 4.5
        assert edge.props["year"] == 2020


class TestMergeIsCopyOnWrite:
    """A merge into an existing node never reaches a view frozen before it."""

    def test_set_types_after_freeze_leaves_the_frozen_view_alone(self):
        b = GraphBuilder()
        b.triple("Alice", "knows", "Bob")
        g = b.graph
        csr = g.freeze()
        generation = g.generation
        b.set_types("Alice", "person")
        assert g.generation > generation
        assert g.freeze() is not csr
        assert csr.node(0).types == frozenset()
        assert csr.nodes_with_type("person") == []
        assert g.freeze().node(0).types == frozenset({"person"})
        assert g.freeze().nodes_with_type("person") == [0]

    def test_props_merge_after_freeze_leaves_the_frozen_view_alone(self):
        b = GraphBuilder()
        b.node("Alice", age=30)
        csr = b.graph.freeze()
        b.node("Alice", city="Paris")
        assert csr.node(0).props == {"age": 30}
        assert b.graph.freeze().node(0).props == {"age": 30, "city": "Paris"}

    def test_a_merge_that_adds_nothing_is_not_a_mutation(self):
        b = GraphBuilder()
        b.node("Alice", types=("person",))
        csr = b.graph.freeze()
        b.node("Alice")
        b.set_types("Alice", "person")
        assert b.graph.freeze() is csr

    def test_a_node_of_the_frozen_base_cannot_change(self):
        b = GraphBuilder()
        b.triple("Alice", "knows", "Bob")
        g = b.graph
        view = g.read_view()
        generation = g.generation
        with pytest.raises(GraphError):
            b.set_types("Alice", "person")
        with pytest.raises(GraphError):
            b.node("Bob", age=30)
        assert g.generation == generation and g.read_view() is view
        assert g.node(0).types == frozenset() and g.node(1).props == {}

    def test_a_delta_node_merge_reaches_the_next_view_only(self):
        b = GraphBuilder()
        b.triple("Alice", "knows", "Bob")
        g = b.graph
        g.read_view()
        b.triple("Carol", "knows", "Alice")
        carol = b.id_of("Carol")
        before = g.read_view()
        b.set_types("Carol", "person")
        after = g.read_view()
        assert after is not before
        assert before.node(carol).types == frozenset()
        assert before.nodes_with_type("person") == []
        assert after.node(carol).types == frozenset({"person"})
        assert after.nodes_with_type("person") == [carol]


class TestGraphFromTriples:
    def test_basic(self):
        g = graph_from_triples([("a", "r", "b"), ("b", "r", "c")], name="t")
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.name == "t"

    def test_types_argument(self):
        g = graph_from_triples(
            [("Alice", "worksAt", "Inria")],
            types={"Alice": ("person",), "Inria": ("organization",)},
        )
        assert g.nodes_with_type("person") == [g.find_node_by_label("Alice")]
        assert g.nodes_with_type("organization") == [g.find_node_by_label("Inria")]
