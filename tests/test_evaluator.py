"""End-to-end EQL evaluation tests (Section 3 strategy, Definition 2.10)."""

import pytest

from repro.ctp.config import SearchConfig
from repro.ctp.results import ResultTree
from repro.errors import EvaluationError
from repro.graph.datasets import figure1, figure1_edge
from repro.graph.graph import Graph
from repro.query.ast import CTPFilters
from repro.query.evaluator import config_for_ctp, derive_binding_values, evaluate_query
from repro.storage.table import Table

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


@pytest.fixture
def fig1():
    return figure1()


class TestQ1:
    def test_row_count_matches_complete_ctp(self, fig1):
        result = evaluate_query(fig1, Q1)
        assert len(result) == 64

    def test_seed_sets_derived_from_bgps(self, fig1):
        result = evaluate_query(fig1, Q1)
        report = result.ctp_reports[0]
        assert report.seed_set_sizes == (2, 2, 1)
        assert report.algorithm == "molesp"

    def test_t_alpha_row_present(self, fig1):
        result = evaluate_query(fig1, Q1)
        t_alpha = frozenset(figure1_edge(k) for k in (10, 9, 11))
        names = {n: fig1.find_node_by_label(n) for n in ("Carole", "Doug", "Elon")}
        match = [
            row
            for row in result.rows
            if row[3].edges == t_alpha
        ]
        assert len(match) == 1
        row = match[0]
        assert row[0] == names["Carole"]
        assert row[1] == names["Doug"]
        assert row[2] == names["Elon"]

    def test_t_beta_row_present(self, fig1):
        result = evaluate_query(fig1, Q1)
        t_beta = frozenset(figure1_edge(k) for k in (1, 2, 17, 16))
        assert any(row[3].edges == t_beta for row in result.rows)

    def test_timings_populated(self, fig1):
        result = evaluate_query(fig1, Q1)
        assert result.timings.bgp_seconds >= 0
        assert result.timings.ctp_seconds > 0
        assert result.timings.total_seconds > 0

    def test_tree_values_are_result_trees(self, fig1):
        result = evaluate_query(fig1, Q1)
        assert all(isinstance(row[3], ResultTree) for row in result.rows)

    def test_format_resolves_labels(self, fig1):
        text = evaluate_query(fig1, Q1).format(limit=3)
        assert "Carole" in text or "Bob" in text
        assert "?w" in text

    def test_format_renders_edge_variables_as_edge_labels(self, fig1):
        result = evaluate_query(fig1, "SELECT ?x ?e ?y WHERE { ?x ?e ?y . }")
        lines = result.format(limit=fig1.num_edges).splitlines()
        assert lines[0] == "?x | ?e | ?y"
        assert "Bob | founded | OrgB" in lines  # edge 0, not "Bob | OrgB | OrgB"
        assert sorted(lines[1:]) == sorted(
            f"{fig1.node(edge.source).label} | {edge.label} | {fig1.node(edge.target).label}"
            for edge in fig1.edges()
        )

    def test_to_dicts(self, fig1):
        dicts = evaluate_query(fig1, Q1).to_dicts()
        assert set(dicts[0]) == {"x", "y", "z", "w"}


class TestAlgorithmsAgree:
    def test_gam_and_molesp_same_rows(self, fig1):
        molesp = evaluate_query(fig1, Q1, algorithm="molesp")
        gam = evaluate_query(fig1, Q1, algorithm="gam")
        key = lambda result: {(r[0], r[1], r[2], r[3].edges) for r in result.rows}
        assert key(molesp) == key(gam)


class TestFiltersPushed:
    def test_max_filter(self, fig1):
        query = Q1.replace("AS ?w", "AS ?w MAX 3")
        result = evaluate_query(fig1, query)
        assert all(row[3].size <= 3 for row in result.rows)
        assert 0 < len(result) < 64

    def test_limit_filter(self, fig1):
        query = Q1.replace("AS ?w", "AS ?w LIMIT 1")
        result = evaluate_query(fig1, query)
        assert len(result) == 1

    def test_score_attached(self, fig1):
        query = Q1.replace("AS ?w", "AS ?w SCORE size")
        result = evaluate_query(fig1, query)
        assert all(row[3].score is not None for row in result.rows)

    def test_top_k(self, fig1):
        query = Q1.replace("AS ?w", "AS ?w SCORE size TOP 5")
        result = evaluate_query(fig1, query)
        assert len(result) == 5
        # the kept trees are the smallest ones
        sizes = sorted(row[3].size for row in result.rows)
        assert sizes[0] == 3

    def test_label_filter(self, fig1):
        query = Q1.replace("AS ?w", 'AS ?w LABEL("citizenOf", "parentOf")')
        result = evaluate_query(fig1, query)
        for row in result.rows:
            labels = {fig1.edge(e).label for e in row[3].edges}
            assert labels <= {"citizenOf", "parentOf"}

    def test_uni_filter(self, fig1):
        query = Q1.replace("AS ?w", "AS ?w UNI")
        result = evaluate_query(fig1, query)
        t_beta = frozenset(figure1_edge(k) for k in (1, 2, 17, 16))
        # t_beta is not unidirectional (Section 2), so it must disappear
        assert all(row[3].edges != t_beta for row in result.rows)
        assert len(result) < 64

    def test_base_config_defaults(self, fig1):
        base = SearchConfig(max_edges=3)
        result = evaluate_query(fig1, Q1, base_config=base)
        assert all(row[3].size <= 3 for row in result.rows)

    def test_query_level_limit(self, fig1):
        result = evaluate_query(fig1, Q1 + " LIMIT 10")
        assert len(result) == 10


class TestSeedSetDerivation:
    def test_free_variable_with_predicate(self, fig1):
        query = """
        SELECT ?z ?w WHERE {
          CONNECT("OrgB", ?z) AS ?w
          FILTER(type(?z) = "politician")
        }
        """
        result = evaluate_query(fig1, query)
        report = result.ctp_reports[0]
        assert report.seed_set_sizes == (1, 2)  # OrgB; Elon + Falcon

    def test_wildcard_seed_set(self, fig1):
        query = 'SELECT ?w WHERE { CONNECT("Bob", *) AS ?w MAX 1 }'
        result = evaluate_query(fig1, query)
        report = result.ctp_reports[0]
        assert report.seed_set_sizes[1] is None
        # Bob alone + one tree per incident edge of Bob
        assert len(report.result_set) == 1 + fig1.degree(fig1.find_node_by_label("Bob"))

    def test_empty_seed_set_no_results(self, fig1):
        query = """
        SELECT ?w WHERE {
          CONNECT(?x, "OrgB") AS ?w
          FILTER(type(?x) = "alien")
        }
        """
        assert len(evaluate_query(fig1, query)) == 0


class TestMultipleCTPsAndJoins:
    def test_two_ctps(self, fig1):
        query = """
        SELECT ?x ?w1 ?w2 WHERE {
          ?x founded "OrgB" .
          CONNECT(?x, "France") AS ?w1 MAX 3
          CONNECT(?x, "National Liberal Party") AS ?w2 MAX 2
        }
        """
        result = evaluate_query(fig1, query)
        assert len(result) > 0
        assert set(result.columns) == {"x", "w1", "w2"}
        assert len(result.ctp_reports) == 2

    def test_join_restricts_ctp_results(self, fig1):
        # without the BGP the CTP would run over every entrepreneur
        query = """
        SELECT ?x ?w WHERE {
          ?x founded "OrgC" .
          CONNECT(?x, "USA") AS ?w MAX 2
        }
        """
        result = evaluate_query(fig1, query)
        carole = fig1.find_node_by_label("Carole")
        assert all(row[0] == carole for row in result.rows)

    def test_distinct_false_keeps_duplicates(self, fig1):
        query = """
        SELECT ?u WHERE {
          ?x citizenOf ?u .
        }
        """
        with_dups = evaluate_query(fig1, query, distinct=False)
        without = evaluate_query(fig1, query, distinct=True)
        assert len(with_dups) == 5
        assert len(without) == 2  # USA, France


def _junction_graph():
    """B - X - C plus a spur X - D: X is an internal junction node."""
    graph = Graph("junction")
    b = graph.add_node("B")
    c = graph.add_node("C")
    d = graph.add_node("D")
    x = graph.add_node("X")
    graph.add_edge(b, x, "e")
    graph.add_edge(c, x, "e")
    graph.add_edge(d, x, "e")
    return graph


class TestWildcardJoinSemantics:
    """Regression: wildcard seed columns must expand to every valid match.

    The old ``_ctp_table`` bound a wildcard variable to one representative
    node per tree; any join against (or projection of) that variable then
    silently dropped the tree's other valid matches (Definition 2.10)."""

    def test_wildcard_expands_to_all_valid_matches(self):
        graph = _junction_graph()
        query = 'SELECT ?y WHERE { CONNECT(?y, "B", "C") AS ?w }'
        result = evaluate_query(graph, query)
        names = {graph.node(row[0]).label for row in result.rows}
        # The only B-C connection is B-X-C; every leaf is an explicit seed,
        # so ?y may bind any tree node — not just the search root.
        assert {"B", "X", "C"} <= names

    def test_wildcard_join_with_second_ctp(self):
        graph = _junction_graph()
        query = """
        SELECT ?y WHERE {
          CONNECT(?y, "B", "C") AS ?w1
          CONNECT(?y, "D") AS ?w2
        }
        """
        result = evaluate_query(graph, query)
        names = {graph.node(row[0]).label for row in result.rows}
        # ?y must lie on a B-C connecting tree *and* connect to D.  B, X, C
        # qualify through the path B-X-C; D through its extension B-X-C +
        # X-D (all leaves instantiated seeds).  Representative binding kept
        # only the search roots and lost B and C.
        assert names == {"B", "X", "C", "D"}

    def test_free_leaf_must_be_the_wildcard_match(self, fig1):
        # A path grown away from the explicit seed keeps exactly one
        # non-seed leaf; the wildcard variable must bind it (and nothing
        # else), exactly as the engine reported.
        query = 'SELECT ?y ?w WHERE { CONNECT("Bob", ?y) AS ?w MAX 1 }'
        result = evaluate_query(fig1, query)
        for y, tree in result.rows:
            assert y in tree.nodes
            if tree.edges:
                assert y != fig1.find_node_by_label("Bob")

    def test_multi_wildcard_assignments_cover_free_leaf(self):
        from repro.query.evaluator import _wildcard_assignments

        graph = _junction_graph()
        b, c, x = (graph.find_node_by_label(n) for n in ("B", "C", "X"))
        bx = next(e for e, _, _ in graph.adjacent(b))
        cx = next(e for e, _, _ in graph.adjacent(c))
        # Tree B-X-C for CONNECT(?y1, ?y2, "B"): the free leaf C must be
        # covered by one wildcard variable, the other may bind any node.
        tree = ResultTree(edges=frozenset((bx, cx)), nodes=frozenset((b, x, c)), seeds=(None, None, b))
        combos = set(_wildcard_assignments(graph, tree, (0, 1)))
        assert combos == {(c, b), (c, x), (c, c), (b, c), (x, c)}
        # No free leaf (single-node tree): both variables range freely.
        lone = ResultTree(edges=frozenset(), nodes=frozenset((b,)), seeds=(None, None, b))
        assert set(_wildcard_assignments(graph, lone, (0, 1))) == {(b, b)}

    def test_wildcard_row_count_unchanged_for_paths(self, fig1):
        # Path-shaped wildcard results have a unique valid match (the free
        # leaf), so expansion must not inflate the projection.
        query = 'SELECT ?w WHERE { CONNECT("Bob", *) AS ?w MAX 1 }'
        result = evaluate_query(fig1, query)
        report = result.ctp_reports[0]
        assert len(result) == len(report.result_set)


class TestBindingIntersection:
    """Regression: a variable bound by several tables must derive CTP seeds
    from the *intersection* of their distinct values, not the first table."""

    def test_intersection_of_two_tables(self):
        first = Table(("x", "y"), [(1, 10), (2, 20), (3, 30)])
        second = Table(("x", "z"), [(2, 200), (4, 400), (3, 300)])
        values = derive_binding_values([first, second])
        assert values["x"] == [2, 3]  # first-table order, intersected
        assert values["y"] == [10, 20, 30]
        assert values["z"] == [200, 400, 300]

    def test_single_table_keeps_distinct_order(self):
        table = Table(("x",), [(3,), (1,), (3,), (2,)])
        assert derive_binding_values([table])["x"] == [3, 1, 2]

    def test_three_way_intersection(self):
        tables = [
            Table(("x",), [(1,), (2,), (3,), (4,)]),
            Table(("x",), [(2,), (3,), (4,)]),
            Table(("x",), [(4,), (2,)]),
        ]
        assert derive_binding_values(tables)["x"] == [2, 4]


class TestUniTriState:
    """Regression: a per-CTP filter can turn ``uni`` *off* again."""

    def test_unspecified_inherits_base(self):
        config = config_for_ctp(CTPFilters(), SearchConfig(uni=True), None)
        assert config.uni is True
        config = config_for_ctp(CTPFilters(), SearchConfig(), None)
        assert config.uni is False

    def test_explicit_true_overrides(self):
        config = config_for_ctp(CTPFilters(uni=True), SearchConfig(), None)
        assert config.uni is True

    def test_explicit_false_overrides_base_true(self):
        config = config_for_ctp(CTPFilters(uni=False), SearchConfig(uni=True), None)
        assert config.uni is False

    def test_parser_leaves_uni_unspecified(self, fig1):
        # An EQL CTP without UNI inherits a uni base config end-to-end.
        base = SearchConfig(uni=True)
        result = evaluate_query(fig1, Q1, base_config=base)
        t_beta = frozenset(figure1_edge(k) for k in (1, 2, 17, 16))
        assert all(row[3].edges != t_beta for row in result.rows)  # UNI applied

    def test_programmatic_uni_off_beats_base(self, fig1):
        from repro.query.parser import parse_query

        query = parse_query(Q1)
        ctp = query.ctps[0]
        object.__setattr__(ctp, "filters", CTPFilters(uni=False))
        result = evaluate_query(fig1, query, base_config=SearchConfig(uni=True))
        t_beta = frozenset(figure1_edge(k) for k in (1, 2, 17, 16))
        assert any(row[3].edges == t_beta for row in result.rows)  # UNI disabled


class TestErrors:
    def test_all_wildcard_ctp_rejected(self, fig1):
        """A CTP whose every seed predicate is free and unconstrained would
        ask for connections between everything and everything — the engine
        refuses it (Section 4.9 requires at least one explicit set)."""
        from repro.errors import SearchError
        from repro.query.ast import CTP, EQLQuery, Predicate

        query = EQLQuery(
            head=("x",),
            ctps=(CTP((Predicate("x"), Predicate("y")), "w"),),
        )
        with pytest.raises(SearchError):
            evaluate_query(fig1, query, base_config=SearchConfig(max_edges=0))

    def test_one_constrained_seed_suffices(self, fig1):
        query = """
        SELECT ?x ?w WHERE {
          CONNECT(?x, *) AS ?w MAX 1
          FILTER(type(?x) = "politician")
        }
        """
        result = evaluate_query(fig1, query)
        assert len(result) > 0
        assert result.columns == ("x", "w")
