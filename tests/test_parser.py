"""Tests for the EQL parser, and for the printer that writes a query back."""

import random

import pytest

from repro.errors import ParseError, ValidationError
from repro.graph.datasets import figure1
from repro.query import parser
from repro.query.parser import parse_query
from repro.workloads.cdf import cdf_query
from repro.workloads.queries import random_query
from repro.workloads.realworld import j1_query, j2_query, j3_query


def parse(text):
    """``parse_query``, asserting that the query's printed EQL parses back to it."""
    query = parse_query(text)
    assert parse_query(str(query)) == query, str(query)
    return query

Q1 = """
SELECT ?x ?y ?z ?w
WHERE {
  ?x citizenOf "USA" .
  ?y citizenOf "France" .
  ?z citizenOf "France" .
  FILTER(type(?x) = "entrepreneur")
  FILTER(type(?y) = "entrepreneur")
  FILTER(type(?z) = "politician")
  CONNECT(?x, ?y, ?z) AS ?w
}
"""


class TestBasics:
    def test_q1_head(self):
        query = parse(Q1)
        assert query.head == ("x", "y", "z", "w")

    def test_q1_patterns_and_ctp(self):
        query = parse(Q1)
        assert len(query.patterns) == 3
        assert len(query.ctps) == 1
        ctp = query.ctps[0]
        assert ctp.m == 3
        assert ctp.tree_var == "w"
        assert ctp.seed_vars() == ("x", "y", "z")

    def test_filter_conditions_attach_to_predicates(self):
        query = parse(Q1)
        source = query.patterns[0].source
        assert source.var == "x"
        assert source.type_constant() == "entrepreneur"

    def test_constants_become_label_predicates(self):
        query = parse(Q1)
        target = query.patterns[0].target
        assert target.var.startswith("_c")
        assert target.label_constant() == "USA"

    def test_edge_constant_shorthand(self):
        query = parse(Q1)
        edge = query.patterns[0].edge
        assert edge.label_constant() == "citizenOf"

    def test_bare_identifier_constant(self):
        query = parse('SELECT ?x WHERE { ?x knows Bob }')
        assert query.patterns[0].target.label_constant() == "Bob"

    def test_optional_dots(self):
        query = parse('SELECT ?x WHERE { ?x a ?y ?y b ?z }')
        assert len(query.patterns) == 2

    def test_comments_ignored(self):
        query = parse('SELECT ?x WHERE { # hello\n ?x a ?y }')
        assert len(query.patterns) == 1

    def test_string_escapes(self):
        query = parse('SELECT ?x WHERE { ?x a "say \\"hi\\"" }')
        assert query.patterns[0].target.label_constant() == 'say "hi"'

    def test_select_star_excludes_anonymous(self):
        query = parse('SELECT * WHERE { ?x knows "Bob" . CONNECT(?x, "Eve") AS ?w }')
        assert query.head == ("x", "w")

    def test_keywords_case_insensitive(self):
        query = parse('select ?x where { connect(?x, "B") as ?x2 uni }')
        assert query.ctps[0].filters.uni

    def test_query_level_limit(self):
        query = parse('SELECT ?x WHERE { ?x a ?y } LIMIT 7')
        assert query.limit == 7

    def test_no_limit_default(self):
        query = parse('SELECT ?x WHERE { ?x a ?y }')
        assert query.limit is None


class TestCTPFilters:
    def test_all_filters(self):
        query = parse(
            'SELECT ?w WHERE { CONNECT(?a, ?b) AS ?w '
            'UNI LABEL("x", "y") MAX 6 SCORE size TOP 3 TIMEOUT 2.5 LIMIT 9 }'
        )
        filters = query.ctps[0].filters
        assert filters.uni is True
        assert filters.labels == frozenset({"x", "y"})
        assert filters.max_edges == 6
        assert filters.score == "size"
        assert filters.top_k == 3
        assert filters.timeout == 2.5
        assert filters.limit == 9

    def test_integer_timeout(self):
        query = parse('SELECT ?w WHERE { CONNECT(?a, ?b) AS ?w TIMEOUT 10 }')
        assert query.ctps[0].filters.timeout == 10.0

    def test_wildcard_seed(self):
        query = parse('SELECT ?w WHERE { CONNECT(?a, *) AS ?w }')
        seeds = query.ctps[0].seeds
        assert seeds[0].var == "a"
        assert seeds[1].is_empty
        assert seeds[1].var.startswith("_c")

    def test_constant_seed(self):
        query = parse('SELECT ?w WHERE { CONNECT("Alice", ?b) AS ?w }')
        assert query.ctps[0].seeds[0].label_constant() == "Alice"

    def test_filters_on_ctp_seed_var(self):
        query = parse(
            'SELECT ?w WHERE { CONNECT(?a, ?b) AS ?w FILTER(type(?a) = "person") }'
        )
        assert query.ctps[0].seeds[0].type_constant() == "person"


class TestFilterSyntax:
    def test_label_function(self):
        query = parse('SELECT ?x WHERE { ?x a ?y FILTER(label(?y) ~ "Org*") }')
        target = query.patterns[0].target
        assert target.conditions[0].prop == "label"
        assert target.conditions[0].op == "~"

    def test_var_shorthand_means_label(self):
        query = parse('SELECT ?x WHERE { ?x a ?y FILTER(?y = "OrgB") }')
        assert query.patterns[0].target.label_constant() == "OrgB"

    def test_and_conjunction(self):
        query = parse(
            'SELECT ?x WHERE { ?x a ?y FILTER(type(?x) = "p" AND age(?x) >= 18) }'
        )
        assert len(query.patterns[0].source.conditions) == 2

    def test_numeric_literals(self):
        query = parse('SELECT ?x WHERE { ?x a ?y FILTER(age(?x) < 4.5) }')
        assert query.patterns[0].source.conditions[0].value == 4.5


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "WHERE { ?x a ?y }",  # missing SELECT
            "SELECT WHERE { ?x a ?y }",  # no head vars
            "SELECT ?x { ?x a ?y }",  # missing WHERE
            "SELECT ?x WHERE { ?x a }",  # incomplete triple
            "SELECT ?x WHERE { ?x a ?y",  # missing }
            "SELECT ?x WHERE { CONNECT(?x) AS ?w }",  # 1 seed
            "SELECT ?x WHERE { CONNECT(?x, ?y) ?w }",  # missing AS
            "SELECT ?x WHERE { CONNECT(?x, ?y) AS ?w MAX two }",  # bad int
            "SELECT ?x WHERE { ?x a ?y } garbage",  # trailing input
            "SELECT ?x WHERE { FILTER(?x < ) ?x a ?y }",  # bad literal
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse_query("SELECT ?x WHERE { ?x a ?y @ }")
        assert "unexpected character" in str(info.value)

    def test_filter_on_unused_var_rejected(self):
        with pytest.raises(ValidationError):
            parse_query('SELECT ?x WHERE { ?x a ?y FILTER(type(?ghost) = "p") }')

    def test_tree_var_reuse_rejected(self):
        with pytest.raises(ValidationError):
            parse_query("SELECT ?w WHERE { ?w a ?y . CONNECT(?y, ?z) AS ?w }")


class TestPrintParsesBack:
    """``parse_query(str(query)) == query``; the tests above check it on
    every query they parse."""

    #: The query of the parser's docstring, the examples' queries, and the
    #: J1-J3 and CDF workload queries.
    QUERIES = [
        parser.__doc__[parser.__doc__.index("SELECT") : parser.__doc__.index("}") + 1],
        Q1,
        'SELECT ?e ?l WHERE { CONNECT(?e, *) AS ?l MAX 2 LIMIT 40 TIMEOUT 5 FILTER(?e = "OrgB") }',
        'SELECT ?p ?q ?tree WHERE { ?p livesIn "Paris" . ?q livesIn "Lyon" . '
        'FILTER(type(?p) = "person") CONNECT(?p, ?q) AS ?tree MAX 4 }',
        'SELECT ?w WHERE { CONNECT("Mr. Shady", "Bank ABC", "Tax Office") AS ?w SCORE hub_penalty }',
        j1_query(),
        j1_query("UNI LABEL(\"linksTo\") MAX 5 SCORE size TOP 10 TIMEOUT 0.5 LIMIT 500"),
        j2_query(),
        j3_query(),
        cdf_query(2, "UNI TIMEOUT 5"),
        cdf_query(3),
        'SELECT ?x WHERE { ?x a "back\\\\slash" } LIMIT 3',
        'SELECT ?w WHERE { CONNECT(?a, *, "B") AS ?w UNI MAX 3 TIMEOUT 1.5 LIMIT 2 FILTER(type(?a) = "p") } LIMIT 4',
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_query(self, text):
        parse(text)

    def test_random_queries(self):
        graph = figure1()
        for seed in range(200):
            parse(random_query(graph, random.Random(seed)))
