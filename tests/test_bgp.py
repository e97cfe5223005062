"""Tests for BGP evaluation (Definition 2.7, step A of Section 3).

The interpretive matcher that ``repro.query.bgp`` replaced lives on here as
``_reference_match_pattern``; a Hypothesis property holds the compiled
matcher to it row for row, in order, on all three graph backends.

``tests/data/bgp_eql_paper_golden.json`` pins ``(columns, row count,
sha256 of the rows in order)`` of every BGP table of the e2e benchmark's
``eql_paper`` catalogue.  Row *order* is part of the contract — seed sets
are the first-seen distinct values of a BGP column and feed
``LIMIT``-pushed searches.  ``python tests/test_bgp.py --regen`` rewrites
the file from whatever ``repro.query.bgp`` is checked out: only ever
regenerate it from a commit whose tables are known to be right.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph.datasets import figure1
from repro.graph.graph import Graph
from repro.query import evaluate_query, parse_query
from repro.query.ast import BGP, Condition, EdgePattern, Predicate
from repro.query.bgp import candidate_edges, evaluate_bgp, match_pattern, matching_nodes
from repro.storage.table import Table
from repro.workloads import cdf_graph, yago_like

E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
GOLDEN_PATH = Path(__file__).parent / "data" / "bgp_eql_paper_golden.json"


@pytest.fixture
def fig1():
    return figure1()


def P(var, **kwargs):
    conditions = []
    if "label" in kwargs:
        conditions.append(Condition("label", "=", kwargs["label"]))
    if "type" in kwargs:
        conditions.append(Condition("type", "=", kwargs["type"]))
    return Predicate(var, tuple(conditions))


class TestMatchPattern:
    def test_edge_label_constant(self, fig1):
        pattern = EdgePattern(P("x"), P("e", label="citizenOf"), P("y"))
        table = match_pattern(fig1, pattern)
        assert len(table) == 5
        assert set(table.columns) == {"x", "e", "y"}

    def test_source_and_target_conditions(self, fig1):
        pattern = EdgePattern(
            P("x", type="entrepreneur"), P("e", label="citizenOf"), P("y", label="USA")
        )
        table = match_pattern(fig1, pattern)
        labels = {fig1.node(v).label for v in table.column("x")}
        assert labels == {"Bob", "Carole"}

    def test_edge_var_binds_edge_ids(self, fig1):
        pattern = EdgePattern(P("x", label="Bob"), P("e"), P("y"))
        table = match_pattern(fig1, pattern)
        assert {fig1.edge(v).label for v in table.column("e")} == {"founded", "citizenOf"}

    def test_repeated_variable_self_loop(self):
        g = Graph()
        a = g.add_node("a")
        b = g.add_node("b")
        g.add_edge(a, a, "self")
        g.add_edge(a, b, "out")
        pattern = EdgePattern(P("x"), P("e"), P("x"))
        table = match_pattern(g, pattern)
        assert len(table) == 1
        assert table.columns == ("x", "e")

    def test_no_match(self, fig1):
        pattern = EdgePattern(P("x"), P("e", label="ghost"), P("y"))
        assert len(match_pattern(fig1, pattern)) == 0


class TestCandidateEdges:
    def test_prefers_edge_label_index(self, fig1):
        pattern = EdgePattern(P("x"), P("e", label="founded"), P("y"))
        candidates = list(candidate_edges(fig1, pattern))
        assert len(candidates) == 3

    def test_prefers_selective_node_index(self, fig1):
        # "Bob" matches one node; its out-edges are fewer than all edges
        pattern = EdgePattern(P("x", label="Bob"), P("e"), P("y"))
        candidates = list(candidate_edges(fig1, pattern))
        assert len(candidates) == 2

    def test_target_index(self, fig1):
        pattern = EdgePattern(P("x"), P("e"), P("y", label="USA"))
        candidates = list(candidate_edges(fig1, pattern))
        assert len(candidates) == 3

    def test_fallback_all_edges(self, fig1):
        pattern = EdgePattern(P("x"), P("e"), P("y"))
        assert len(list(candidate_edges(fig1, pattern))) == 19

    def test_type_index(self, fig1):
        pattern = EdgePattern(P("x", type="politician"), P("e"), P("y"))
        candidates = list(candidate_edges(fig1, pattern))
        # Elon has 3 outgoing, Falcon 2
        assert len(candidates) == 5


class TestEvaluateBGP:
    def test_join_two_patterns(self, fig1):
        # b1 of Section 2: x citizenOf USA and x founded OrgB => x = Bob
        bgp = BGP(
            (
                EdgePattern(P("x"), P("e1", label="citizenOf"), P("u", label="USA")),
                EdgePattern(P("x"), P("e2", label="founded"), P("o", label="OrgB")),
            )
        )
        table = evaluate_bgp(fig1, bgp)
        assert len(table) == 1
        assert fig1.node(table.column("x")[0]).label == "Bob"

    def test_chain_join(self, fig1):
        # who founded a company located in the USA?
        bgp = BGP(
            (
                EdgePattern(P("x"), P("e1", label="founded"), P("c")),
                EdgePattern(P("c"), P("e2", label="locatedIn"), P("u", label="USA")),
            )
        )
        table = evaluate_bgp(fig1, bgp)
        assert {fig1.node(v).label for v in table.column("x")} == {"Carole"}

    def test_empty_join(self, fig1):
        bgp = BGP(
            (
                EdgePattern(P("x"), P("e1", label="founded"), P("c", label="OrgB")),
                EdgePattern(P("c"), P("e2", label="locatedIn"), P("u")),
            )
        )
        assert len(evaluate_bgp(fig1, bgp)) == 0

    def test_matches_brute_force(self, fig1):
        """Index-driven evaluation equals the naive nested-loop semantics."""
        bgp = BGP(
            (
                EdgePattern(P("x"), P("e1", label="citizenOf"), P("y")),
                EdgePattern(P("x"), P("e2", label="investsIn"), P("z")),
            )
        )
        table = evaluate_bgp(fig1, bgp)
        expected = set()
        for e1 in fig1.edges():
            if e1.label != "citizenOf":
                continue
            for e2 in fig1.edges():
                if e2.label != "investsIn" or e2.source != e1.source:
                    continue
                expected.add((e1.source, e1.id, e1.target, e2.id, e2.target))
        got = set()
        for row in table.rows:
            record = dict(zip(table.columns, row))
            got.add((record["x"], record["e1"], record["y"], record["e2"], record["z"]))
        assert got == expected


# ----------------------------------------------------------------------
# the three graph backends
# ----------------------------------------------------------------------
def _as_overlay(graph, base_nodes):
    """A read view equal to ``graph``: its first ``base_nodes`` nodes and
    half of the edges among them in the CSR base, the rest in the delta."""
    nodes, edges = list(graph.nodes()), list(graph.edges())
    among = next(
        (i for i, edge in enumerate(edges) if max(edge.source, edge.target) >= base_nodes),
        len(edges),
    )
    copy = Graph(graph.name)

    def add(some_nodes, some_edges):
        for node in some_nodes:
            copy.add_node(node.label, node.types, **node.props)
        for edge in some_edges:
            copy.add_edge(edge.source, edge.target, edge.label, edge.weight, **edge.props)

    add(nodes[:base_nodes], edges[: among // 2])
    copy.ensure_base()
    add(nodes[base_nodes:], edges[among // 2 :])
    return copy.read_view()


BACKENDS = {
    "dict": lambda graph: graph,
    "csr": lambda graph: graph.freeze(),
    "overlay": lambda graph: _as_overlay(graph, graph.num_nodes),
}



# ----------------------------------------------------------------------
# reference: the interpretive matcher the compiled one replaced
# ----------------------------------------------------------------------
def _reference_node_candidates(graph, predicate):
    label = predicate.label_constant()
    if label is not None:
        return graph.nodes_with_label(label)
    type_name = predicate.type_constant()
    if type_name is not None:
        return graph.nodes_with_type(type_name)
    return None


def _reference_candidate_edges(graph, pattern, self_loops=True):
    """The replaced ``candidate_edges``.  ``self_loops=False`` is the code as
    it was: ``in_edges`` leaves self-loops out of the target path."""
    options = []
    edge_label = pattern.edge.label_constant()
    if edge_label is not None:
        options.append((len(graph.edges_with_label(edge_label)), "edge"))
    source_nodes = _reference_node_candidates(graph, pattern.source)
    if source_nodes is not None:
        options.append((len(source_nodes), "source"))
    target_nodes = _reference_node_candidates(graph, pattern.target)
    if target_nodes is not None:
        options.append((len(target_nodes), "target"))
    if not options:
        return graph.edge_ids()
    options.sort()
    _, best = options[0]
    if best == "edge":
        return graph.edges_with_label(edge_label)
    if best == "source":
        return [edge.id for node in source_nodes for edge in graph.out_edges(node)]
    if not self_loops:
        return [edge.id for node in target_nodes for edge in graph.in_edges(node)]
    return [
        edge_id
        for node in target_nodes
        for edge_id, other, outgoing in graph.adjacent(node)
        if not outgoing or other == node
    ]


def _reference_match_pattern(graph, pattern, self_loops=True):
    """The replaced ``match_pattern`` body: one ``Predicate.test`` per
    position, one ``Edge``, two ``Node`` fetches and one dict per candidate."""
    source_var, edge_var, target_var = pattern.variables()
    columns = []
    for var in (source_var, edge_var, target_var):
        if var not in columns:
            columns.append(var)
    rows = []
    for edge_id in _reference_candidate_edges(graph, pattern, self_loops):
        edge = graph.edge(edge_id)
        if not pattern.edge.test(edge):
            continue
        source = graph.node(edge.source)
        if not pattern.source.test(source):
            continue
        target = graph.node(edge.target)
        if not pattern.target.test(target):
            continue
        binding = {}
        consistent = True
        for var, value in ((source_var, edge.source), (edge_var, edge.id), (target_var, edge.target)):
            if var in binding and binding[var] != value:
                consistent = False
                break
            binding[var] = value
        if consistent:
            rows.append(tuple(binding[c] for c in columns))
    return Table(columns, rows)


def _reference_match_seed_nodes(graph, predicate):
    """The per-node loop ``match_seed_nodes`` ran before it shared
    ``matching_nodes`` with the matcher."""
    nodes = _reference_node_candidates(graph, predicate)
    if nodes is None:
        return graph.find_nodes(predicate.test)
    return [n for n in nodes if predicate.test(graph.node(n))]


# One small vocabulary for graphs and conditions alike, so that filters keep
# some rows and lose others instead of emptying every table.
_NODE_LABELS = st.sampled_from(["a", "b", "ab"])
_EDGE_LABELS = st.sampled_from(["r", "s", ""])
_TYPES = st.sampled_from(["t", "u"])
_SMALL = st.integers(-1, 1)


@st.composite
def _multigraphs(draw):
    """1-5 nodes, up to 10 edges; self-loops and parallel edges wanted."""
    graph = Graph("property")
    for _ in range(draw(st.integers(1, 5))):
        props = draw(st.dictionaries(st.sampled_from(["k", "age"]), _SMALL, max_size=2))
        graph.add_node(draw(_NODE_LABELS), draw(st.frozensets(_TYPES)), **props)
    endpoint = st.integers(0, graph.num_nodes - 1)
    for _ in range(draw(st.integers(0, 10))):
        source = draw(endpoint)
        target = source if draw(st.integers(0, 3)) == 0 else draw(endpoint)
        props = draw(st.dictionaries(st.just("k"), _SMALL))
        graph.add_edge(source, target, draw(_EDGE_LABELS), draw(st.sampled_from([0.5, 1.0, 2.0])), **props)
    return graph


_NODE_CONDITIONS = st.one_of(
    st.builds(Condition, st.just("label"), st.sampled_from(["=", "=", "!=", "<"]), _NODE_LABELS),
    st.builds(Condition, st.just("label"), st.just("~"), st.sampled_from(["a*", "?", "*b"])),
    st.builds(Condition, st.just("type"), st.sampled_from(["=", "=", "!="]), _TYPES),
    st.builds(Condition, st.sampled_from(["k", "age"]), st.sampled_from(["=", "!=", "<", ">="]), _SMALL),
)
_EDGE_CONDITIONS = st.one_of(
    st.builds(Condition, st.just("label"), st.sampled_from(["=", "=", "!="]), _EDGE_LABELS),
    st.builds(Condition, st.just("label"), st.just("~"), st.sampled_from(["r*", "?"])),
    st.builds(Condition, st.just("weight"), st.sampled_from(["<", ">="]), st.just(1.0)),
    st.builds(Condition, st.just("k"), st.sampled_from(["=", "!="]), _SMALL),
)


def _predicates(variables, conditions):
    # Up to two conditions, so contradictory label constants occur.
    return st.builds(
        Predicate, st.sampled_from(variables), st.lists(conditions, max_size=2).map(tuple)
    )


#: Repeated variables included: ``?x ?e ?x``, and an edge variable that is
#: also a node variable (node and edge *ids* must then coincide).
_PATTERNS = st.builds(
    EdgePattern,
    _predicates(["x"], _NODE_CONDITIONS),
    _predicates(["e", "e", "e", "x"], _EDGE_CONDITIONS),
    _predicates(["y", "y", "x"], _NODE_CONDITIONS),
)


@settings(max_examples=300, deadline=None)
@given(graph=_multigraphs(), pattern=_PATTERNS, data=st.data())
def test_compiled_matcher_equals_interpretive_reference(graph, pattern, data):
    views = [graph, graph.freeze(), _as_overlay(graph, data.draw(st.integers(0, graph.num_nodes)))]
    loops = {edge.id for edge in graph.edges() if edge.source == edge.target}
    for view in views:
        expected = _reference_match_pattern(view, pattern)
        got = match_pattern(view, pattern)
        assert got.columns == expected.columns
        assert got.rows == expected.rows  # as lists: same rows, same order
        # The one difference from the replaced code: on the target path it
        # lost every self-loop embedding, and nothing else.
        edge_at = expected.columns.index(pattern.edge.var)
        assert _reference_match_pattern(view, pattern, self_loops=False).rows in (
            expected.rows,
            [row for row in expected.rows if row[edge_at] not in loops],
        )
        for predicate in (pattern.source, pattern.target):
            assert matching_nodes(view, predicate) == _reference_match_seed_nodes(view, predicate)
            some = list(range(0, view.num_nodes, 2))
            assert matching_nodes(view, predicate, some) == [
                n for n in some if predicate.test(view.node(n))
            ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_target_path_keeps_self_loops(backend):
    """Def. 2.7: A→A is an embedding of ``?s ?e ?t`` with ``label(?t) = "A"``
    whichever index is cheapest (``in_edges`` used to drop it)."""
    graph = Graph()
    a, b = graph.add_node("A"), graph.add_node("B")
    for source, target in ((a, a), (b, a), (a, b)):
        graph.add_edge(source, target, "r")
    view = BACKENDS[backend](graph)

    def rows(where):
        return sorted(evaluate_query(view, f"SELECT ?s ?t WHERE {{ ?s ?e ?t . {where} }}").rows)

    assert rows('FILTER(label(?t) = "A")') == [(a, a), (b, a)]
    assert rows('FILTER(label(?s) = "A")') == [(a, a), (a, b)]
    assert rows("") == [(a, a), (a, b), (b, a)]


class _NoObjects:
    """A graph view that refuses to build ``Node`` / ``Edge`` objects."""

    def __init__(self, graph):
        self._graph = graph

    def __getattr__(self, name):
        if name in ("node", "edge", "nodes", "edges", "out_edges", "in_edges", "find_nodes"):
            raise AssertionError(f"graph.{name} called for an index-answerable pattern")
        return getattr(self._graph, name)


def test_index_answerable_conditions_fetch_no_node_or_edge(fig1):
    view = _NoObjects(fig1)
    for pattern in (
        EdgePattern(P("x", type="entrepreneur"), P("e", label="citizenOf"), P("y", label="USA")),
        EdgePattern(P("x", label="Bob"), P("e", label="founded"), P("y", type="company")),
        EdgePattern(P("x"), P("e"), P("y", label="USA", type="country")),
        EdgePattern(P("x"), P("e"), P("x")),
    ):
        assert match_pattern(view, pattern).rows == _reference_match_pattern(fig1, pattern).rows


def test_ordered_comparison_on_type_still_raises(fig1):
    bad = Predicate("x", (Condition("type", "<", "z"),))
    with pytest.raises(ValidationError):
        match_pattern(fig1, EdgePattern(bad, P("e"), P("y")))
    with pytest.raises(ValidationError):
        matching_nodes(fig1, bad)


# ----------------------------------------------------------------------
# golden: every BGP table of the eql_paper catalogue, row for row
# ----------------------------------------------------------------------
def _catalogue_bgps():
    """``(key, graph, BGP)`` per BGP of the catalogue, on the graphs
    ``wl_eql_paper.EqlPaper.build`` makes for a full (non-smoke) run."""
    sys.path.insert(0, str(E2E_DIR))
    try:
        from wl_eql_paper import WORKLOAD
    finally:
        sys.path.remove(str(E2E_DIR))
    graphs = {
        "yago": yago_like(scale=1.0).graph,
        "cdf2": cdf_graph(80, 160, 3, m=2, seed=17).graph,
        "cdf3": cdf_graph(40, 80, 3, m=3, seed=23).graph,
    }
    return [
        (f"{name}#{index}", graphs[key], bgp)
        for name, key, text in WORKLOAD.catalogue(False)
        for index, bgp in enumerate(parse_query(text).bgps())
    ]


@pytest.fixture(scope="module")
def catalogue_bgps():
    return _catalogue_bgps()


def _table_record(table):
    return {
        "columns": list(table.columns),
        "rows": len(table),
        "sha256": hashlib.sha256(repr(table.rows).encode()).hexdigest(),
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_catalogue_tables_match_golden(catalogue_bgps, backend):
    golden = json.loads(GOLDEN_PATH.read_text())
    views = {}
    got = {}
    for key, graph, bgp in catalogue_bgps:
        if id(graph) not in views:
            views[id(graph)] = BACKENDS[backend](graph)
        got[key] = _table_record(evaluate_bgp(views[id(graph)], bgp))
    assert got == golden


if __name__ == "__main__":
    if "--regen" in sys.argv:
        records = {
            key: _table_record(evaluate_bgp(graph, bgp))
            for key, graph, bgp in _catalogue_bgps()
        }
        GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
