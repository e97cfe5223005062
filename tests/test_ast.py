"""Tests for the EQL AST and its well-formedness rules (Defs 2.2-2.6)."""

import pytest

from repro.errors import ValidationError
from repro.graph.graph import Graph
from repro.query.ast import (
    BGP,
    CTP,
    Condition,
    CTPFilters,
    EdgePattern,
    EQLQuery,
    Predicate,
)
from repro.query.parser import parse_query


@pytest.fixture
def node_graph() -> Graph:
    g = Graph()
    g.add_node("Alice", types=("entrepreneur",), age=31)
    g.add_node("Bob", types=("politician",), age=55)
    g.add_edge(0, 1, "knows", weight=2.0)
    return g


class TestCondition:
    def test_equality_on_label(self, node_graph):
        condition = Condition("label", "=", "Alice")
        assert condition.test(node_graph.node(0))
        assert not condition.test(node_graph.node(1))

    def test_inequality(self, node_graph):
        assert Condition("label", "!=", "Alice").test(node_graph.node(1))

    def test_numeric_comparisons(self, node_graph):
        assert Condition("age", "<", 40).test(node_graph.node(0))
        assert Condition("age", "<=", 31).test(node_graph.node(0))
        assert Condition("age", ">", 40).test(node_graph.node(1))
        assert Condition("age", ">=", 55).test(node_graph.node(1))

    def test_match_operator_globs(self, node_graph):
        # the paper's example: label ending in "lice"
        assert Condition("label", "~", "*lice").test(node_graph.node(0))
        assert not Condition("label", "~", "*lice").test(node_graph.node(1))

    def test_type_membership(self, node_graph):
        assert Condition("type", "=", "entrepreneur").test(node_graph.node(0))
        assert Condition("type", "!=", "entrepreneur").test(node_graph.node(1))

    def test_type_ordering_undefined(self, node_graph):
        with pytest.raises(ValidationError):
            Condition("type", "<", "a").test(node_graph.node(0))

    def test_missing_property_false(self, node_graph):
        assert not Condition("salary", "=", 1).test(node_graph.node(0))

    def test_incomparable_types_false(self, node_graph):
        assert not Condition("age", "<", "abc").test(node_graph.node(0))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError):
            Condition("label", "??", "x")

    def test_edge_condition(self, node_graph):
        edge = node_graph.edge(0)
        assert Condition("label", "=", "knows").test(edge)
        assert Condition("weight", ">", 1.0).test(edge)


class TestPredicate:
    def test_empty_predicate_matches_everything(self, node_graph):
        assert Predicate("v").test(node_graph.node(0))
        assert Predicate("v").is_empty

    def test_conjunction(self, node_graph):
        predicate = Predicate(
            "v",
            (Condition("label", "~", "*lice"), Condition("type", "=", "entrepreneur")),
        )
        assert predicate.test(node_graph.node(0))
        assert not predicate.test(node_graph.node(1))

    def test_label_equals_shorthand(self, node_graph):
        predicate = Predicate.label_equals("v", "Alice")
        assert predicate.label_constant() == "Alice"
        assert predicate.test(node_graph.node(0))

    def test_type_constant(self):
        predicate = Predicate("v", (Condition("type", "=", "person"),))
        assert predicate.type_constant() == "person"
        assert predicate.label_constant() is None

    def test_str_forms(self):
        query = parse_query('SELECT ?v ?e WHERE { ?v ?e "Alice" . FILTER(label(?v) = "Bob") }')
        (pattern,) = query.patterns
        assert pattern.source == Predicate.label_equals("v", "Bob")
        assert pattern.edge == Predicate("e")
        assert pattern.target.label_constant() == "Alice"
        assert parse_query(str(query)) == query


class TestBGP:
    def test_connected_ok(self):
        p1 = EdgePattern(Predicate("x"), Predicate("e1"), Predicate("y"))
        p2 = EdgePattern(Predicate("y"), Predicate("e2"), Predicate("z"))
        bgp = BGP((p1, p2))
        assert bgp.variables() == ["x", "e1", "y", "e2", "z"]

    def test_disconnected_rejected(self):
        p1 = EdgePattern(Predicate("x"), Predicate("e1"), Predicate("y"))
        p2 = EdgePattern(Predicate("a"), Predicate("e2"), Predicate("b"))
        with pytest.raises(ValidationError):
            BGP((p1, p2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            BGP(())


class TestCTP:
    def test_variables_must_be_distinct(self):
        with pytest.raises(ValidationError):
            CTP((Predicate("x"), Predicate("x")), "w")
        with pytest.raises(ValidationError):
            CTP((Predicate("x"), Predicate("y")), "x")

    def test_m_property(self):
        ctp = CTP((Predicate("x"), Predicate("y"), Predicate("z")), "w")
        assert ctp.m == 3
        assert ctp.seed_vars() == ("x", "y", "z")

    def test_filters_top_requires_score(self):
        with pytest.raises(ValidationError):
            CTPFilters(top_k=3)


class TestEQLQuery:
    def _pattern(self, a, e, b):
        return EdgePattern(Predicate(a), Predicate(e), Predicate(b))

    def test_needs_some_body(self):
        with pytest.raises(ValidationError):
            EQLQuery(head=())

    def test_tree_var_must_be_unique(self):
        ctp1 = CTP((Predicate("x"), Predicate("y")), "w")
        ctp2 = CTP((Predicate("a"), Predicate("b")), "w")
        with pytest.raises(ValidationError):
            EQLQuery(head=(), ctps=(ctp1, ctp2))

    def test_tree_var_cannot_occur_elsewhere(self):
        ctp = CTP((Predicate("x"), Predicate("y")), "w")
        pattern = self._pattern("w", "e", "z")
        with pytest.raises(ValidationError):
            EQLQuery(head=(), patterns=(pattern,), ctps=(ctp,))

    def test_edge_variable_cannot_seed_a_ctp(self):
        """CONNECT arguments bind nodes (Def 2.5); an edge variable there
        would inject edge ids into seed sets (found by the fuzzer)."""
        pattern = self._pattern("x", "e", "y")
        ctp = CTP((Predicate("e"), Predicate("y")), "w")
        with pytest.raises(ValidationError) as info:
            EQLQuery(head=(), patterns=(pattern,), ctps=(ctp,))
        assert "edge variable" in str(info.value)

    def test_query_level_limit_validation(self):
        with pytest.raises(ValidationError):
            EQLQuery(head=(), patterns=(self._pattern("x", "e", "y"),), limit=0)

    def test_head_vars_must_be_bound(self):
        with pytest.raises(ValidationError):
            EQLQuery(head=("ghost",), patterns=(self._pattern("x", "e", "y"),))

    def test_bgps_are_connected_components(self):
        patterns = (
            self._pattern("x", "e1", "y"),
            self._pattern("y", "e2", "z"),
            self._pattern("a", "e3", "b"),
        )
        query = EQLQuery(head=("x",), patterns=patterns)
        bgps = query.bgps()
        assert len(bgps) == 2
        sizes = sorted(len(bgp.patterns) for bgp in bgps)
        assert sizes == [1, 2]

    def test_simple_and_body_variables(self):
        ctp = CTP((Predicate("x"), Predicate("q")), "w")
        query = EQLQuery(head=("x",), patterns=(self._pattern("x", "e", "y"),), ctps=(ctp,))
        assert query.simple_variables() == ["x", "e", "y", "q"]
        assert query.body_variables() == ["x", "e", "y", "q", "w"]

    def test_str_rendering(self):
        ctp = CTP((Predicate("x"), Predicate("y")), "w")
        query = EQLQuery(head=("x",), patterns=(self._pattern("x", "e", "y"),), ctps=(ctp,))
        text = str(query)
        assert "SELECT ?x" in text and "CONNECT" in text
