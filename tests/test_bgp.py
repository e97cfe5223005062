"""Tests for BGP evaluation (Definition 2.7, step A of Section 3).

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

from repro.graph.datasets import figure1
from repro.graph.graph import Graph
from repro.query import parse_query
from repro.query.ast import BGP, Condition, EdgePattern, Predicate
from repro.query.bgp import candidate_edges, evaluate_bgp, match_pattern
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
# golden: every BGP table of the eql_paper catalogue, row for row
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
