"""The CSR store against the dict store: read equivalence and freeze semantics.

Two groups of tests:

* property-style equivalence — on randomized graphs (several seeds) the
  dict backend (:class:`Graph`) and the CSR backend (:class:`CSRGraph`)
  must agree on every read the algorithms perform: adjacency entries and
  their order, degrees, neighbor sets, label-filtered expansion, BFS /
  Dijkstra distances, traversal order, and the full MoLESP/BFT result
  trees;
* freeze edge cases — empty graphs, self-loops, parallel edges,
  unknown-label queries, memoization, and mutation-after-freeze errors;
* the bulk column build against the per-entry loop it replaced, and the
  node-label index derived on first use against the source graph's.
"""

from __future__ import annotations

import json
import random
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.ctp.bft import BFTSearch
from repro.ctp.config import SearchConfig
from repro.ctp.esp import ESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.errors import GraphError
from repro.graph.backend import CSRGraph, GraphBackend
from repro.graph.delta import OverlayGraph
from repro.graph.graph import Graph
from repro.graph.traversal import ball, bfs_distances, dijkstra_distances
from repro.testing import (
    assert_all_valid,
    random_graph,
    random_seed_sets,
    result_set_record,
    rich_graphs,
)

SEEDS = (1, 2, 3, 5, 8, 13)


def _normalize(entries):
    return [(edge, other, bool(outgoing)) for edge, other, outgoing in entries]


# ----------------------------------------------------------------------
# protocol / selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_both_backends_satisfy_protocol(self):
        graph = random_graph(random.Random(0), num_nodes=6, num_edges=9)
        graph.ensure_base()
        graph.add_edge(0, 1, "late")
        frozen, overlay = graph.freeze(), graph.read_view()
        assert isinstance(overlay, OverlayGraph)
        for view in (graph, frozen, overlay):
            assert isinstance(view, GraphBackend)
        for view in (frozen, overlay):
            assert view.freeze() is view
            frozen_name = f"frozen {type(view).__name__}"
            with pytest.raises(GraphError, match=frozen_name):
                view.add_node("x")
            with pytest.raises(GraphError, match=frozen_name):
                view.add_edge(0, 1, "x")
        assert graph.freeze() is frozen

    def test_backend_names(self):
        graph = Graph()
        assert graph.backend == "dict"
        assert graph.freeze().backend == "csr"

    def test_config_validates_backend(self):
        # The search runs on the graph it is handed; there is no knob.
        with pytest.raises(TypeError):
            SearchConfig(backend="csr")


# ----------------------------------------------------------------------
# equivalence properties (dict vs CSR)
# ----------------------------------------------------------------------
#: Per search case: the algorithm and the (nodes, edges, edge labels, seed
#: sets) of its random graph.
SEARCH_CASES = {
    "molesp": (MoLESPSearch(), 8, 12, 3, 3),
    "molesp-labels": (MoLESPSearch(), 9, 18, 2, 2),
    "esp": (ESPSearch(), 7, 10, 3, 2),
    "bft": (BFTSearch(), 7, 10, 3, 2),
}


def _search_case(name, seed):
    """``(graph, seed_sets, labels)`` of search case ``name`` at ``seed``."""
    _, nodes, edges, num_labels, m = SEARCH_CASES[name]
    rng = random.Random(seed)
    graph = random_graph(rng, num_nodes=nodes, num_edges=edges, num_labels=num_labels)
    seed_sets = random_seed_sets(rng, graph, m=m)
    return graph, seed_sets, frozenset(("l0", "l1")) if name == "molesp-labels" else None


#: ``tests/data/knobs_golden.json``, section ``"backend"``: the record
#: (:func:`repro.testing.result_set_record`) of every search case on the
#: mutable graph (``dict``) and on its frozen view (``csr``) — recorded
#: through the retired ``SearchConfig(backend=...)``, which selected them.
GOLDEN_PATH = Path(__file__).parent / "data" / "knobs_golden.json"


def _golden_records():
    for name, (algorithm, *_) in SEARCH_CASES.items():
        for seed in SEEDS if name == "molesp" else SEEDS[:3]:
            graph, seed_sets, labels = _search_case(name, seed)
            config = SearchConfig(labels=labels)
            for backend, view in (("dict", graph), ("csr", graph.freeze())):
                record = result_set_record(algorithm.run(view, seed_sets, config))
                yield f"{name}|{seed}|{backend}", record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["backend"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_topology_reads_identical(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, num_nodes=12, num_edges=24, num_labels=4)
        frozen = graph.freeze()
        assert frozen.num_nodes == graph.num_nodes
        assert frozen.num_edges == graph.num_edges
        for node in graph.node_ids():
            assert _normalize(frozen.adjacent(node)) == _normalize(graph.adjacent(node))
            assert frozen.degree(node) == graph.degree(node)
            assert frozen.neighbors(node) == graph.neighbors(node)
            assert list(frozen.neighbor_ids(node)) == list(graph.neighbor_ids(node))
        for edge_id in graph.edge_ids():
            assert frozen.edge_weight(edge_id) == graph.edge_weight(edge_id)
            assert frozen.edge_label(edge_id) == graph.edge_label(edge_id)
            assert frozen.edge(edge_id) is graph.edge(edge_id)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_label_indexes_identical(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, num_nodes=10, num_edges=20, num_labels=3)
        frozen = graph.freeze()
        for label in graph.edge_labels():
            assert frozen.edges_with_label(label) == graph.edges_with_label(label)
            labels = frozenset((label,))
            for node in graph.node_ids():
                assert _normalize(frozen.adjacent_filtered(node, labels)) == _normalize(
                    graph.adjacent_filtered(node, labels)
                )
        assert sorted(frozen.edge_labels()) == sorted(graph.edge_labels())
        assert sorted(frozen.node_labels()) == sorted(graph.node_labels())
        for label in graph.node_labels():
            assert frozen.nodes_with_label(label) == graph.nodes_with_label(label)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_traversal_identical(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, num_nodes=14, num_edges=28)
        frozen = graph.freeze()
        for direction in ("both", "out", "in"):
            assert bfs_distances(frozen, [0], direction) == bfs_distances(graph, [0], direction)
            assert dijkstra_distances(frozen, [0], direction) == dijkstra_distances(
                graph, [0], direction
            )
        # traversal order, not just distances
        assert ball(frozen, 0, radius=3) == ball(graph, 0, radius=3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_molesp_results_identical(self, golden, seed):
        graph, seed_sets, _ = _search_case("molesp", seed)
        algorithm = MoLESPSearch()
        via_dict = algorithm.run(graph, seed_sets)
        via_csr = algorithm.run(graph.freeze(), seed_sets)
        assert via_dict.edge_sets() == via_csr.edge_sets()
        assert result_set_record(via_dict) == golden[f"molesp|{seed}|dict"]
        assert result_set_record(via_csr) == golden[f"molesp|{seed}|csr"]
        assert_all_valid(graph, via_csr, seed_sets)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_esp_and_bft_results_identical(self, golden, seed):
        for name in ("esp", "bft"):
            graph, seed_sets, _ = _search_case(name, seed)
            algorithm = SEARCH_CASES[name][0]
            via_dict = algorithm.run(graph, seed_sets)
            via_csr = algorithm.run(graph.freeze(), seed_sets)
            assert via_dict.edge_sets() == via_csr.edge_sets()
            assert result_set_record(via_dict) == golden[f"{name}|{seed}|dict"]
            assert result_set_record(via_csr) == golden[f"{name}|{seed}|csr"]

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_label_filtered_search_identical(self, golden, seed):
        graph, seed_sets, labels = _search_case("molesp-labels", seed)
        algorithm = MoLESPSearch()
        via_dict = algorithm.run(graph, seed_sets, SearchConfig(labels=labels))
        via_csr = algorithm.run(graph.freeze(), seed_sets, SearchConfig(labels=labels))
        assert via_dict.edge_sets() == via_csr.edge_sets()
        assert result_set_record(via_dict) == golden[f"molesp-labels|{seed}|dict"]
        assert result_set_record(via_csr) == golden[f"molesp-labels|{seed}|csr"]


# ----------------------------------------------------------------------
# freeze edge cases
# ----------------------------------------------------------------------
class TestFreeze:
    def test_empty_graph(self):
        frozen = Graph("empty").freeze()
        assert frozen.num_nodes == 0
        assert frozen.num_edges == 0
        assert list(frozen.nodes()) == []
        assert frozen.edges_with_label("nope") == []
        with pytest.raises(GraphError):
            frozen.node(0)

    def test_self_loop_appears_once(self):
        graph = Graph()
        a = graph.add_node("A")
        loop = graph.add_edge(a, a, "self")
        frozen = graph.freeze()
        assert _normalize(frozen.adjacent(a)) == [(loop, a, True)]
        assert frozen.degree(a) == 1
        assert frozen.neighbors(a) == [a]

    def test_parallel_edges_kept(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        e1 = graph.add_edge(a, b, "x")
        e2 = graph.add_edge(a, b, "x")
        frozen = graph.freeze()
        assert _normalize(frozen.adjacent(a)) == [(e1, b, True), (e2, b, True)]
        assert frozen.degree(a) == 2
        assert frozen.neighbors(a) == [b]  # distinct neighbors deduplicate
        assert frozen.edges_with_label("x") == [e1, e2]

    def test_unknown_label_queries(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        graph.add_edge(a, b, "x")
        frozen = graph.freeze()
        assert frozen.nodes_with_label("nope") == []
        assert frozen.nodes_with_type("nope") == []
        assert frozen.edges_with_label("nope") == []
        assert frozen.adjacent_filtered(a, frozenset(("nope",))) == ()
        with pytest.raises(GraphError, match="expected exactly one node"):
            frozen.find_node_by_label("nope")

    def test_mutation_after_freeze_raises(self):
        graph = Graph()
        graph.add_node("A")
        frozen = graph.freeze()
        with pytest.raises(GraphError, match="frozen CSRGraph"):
            frozen.add_node("B")
        with pytest.raises(GraphError, match="frozen CSRGraph"):
            frozen.add_edge(0, 0)

    def test_freeze_is_memoized_and_invalidated(self):
        graph = Graph()
        a = graph.add_node("A")
        frozen = graph.freeze()
        assert graph.freeze() is frozen  # same snapshot while unchanged
        assert frozen.freeze() is frozen  # idempotent on the frozen view
        b = graph.add_node("B")
        graph.add_edge(a, b, "x")
        refrozen = graph.freeze()
        assert refrozen is not frozen  # mutation invalidates the memo
        assert refrozen.num_nodes == 2
        assert frozen.num_nodes == 1  # the old snapshot is unchanged

    def test_frozen_graph_snapshot_is_stable(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        graph.add_edge(a, b, "x")
        frozen = graph.freeze()
        graph.add_edge(b, a, "y")  # mutate the source afterwards
        assert frozen.num_edges == 1
        assert _normalize(frozen.adjacent(b)) == [(0, a, False)]

    def test_adjacent_filtered_accepts_any_iterable(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        e = graph.add_edge(a, b, "x")
        frozen = graph.freeze()
        # dict backend takes any iterable of labels; CSR must too
        assert _normalize(frozen.adjacent_filtered(a, ["x"])) == [(e, b, True)]
        assert _normalize(frozen.adjacent_filtered(a, {"x"})) == _normalize(
            graph.adjacent_filtered(a, ["x"])
        )

    def test_refreeze_picks_up_weight_mutation(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        e = graph.add_edge(a, b, "x", weight=1.0)
        frozen = graph.freeze()
        # In-place Edge mutation is impossible (frozen objects are shared
        # with pinned views); the supported path bumps the generation, so
        # the freeze memo sees it.
        with pytest.raises(GraphError):
            graph.edge(e).weight = 9.0
        graph.set_edge_weight(e, 9.0)
        assert frozen.edge_weight(e) == 1.0  # pinned view keeps its weight
        refrozen = graph.freeze()
        assert refrozen is not frozen
        assert refrozen.edge_weight(e) == 9.0
        assert refrozen.freeze() is refrozen  # idempotent on frozen views

    def test_describe_helpers_match(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        e = graph.add_edge(a, b, "x")
        frozen = graph.freeze()
        assert frozen.describe_edge(e) == graph.describe_edge(e)
        assert frozen.describe_tree([e]) == graph.describe_tree([e])
        assert frozen.describe_tree([]) == "(single node)"
        assert "CSRGraph" in repr(frozen)


# ----------------------------------------------------------------------
# bulk column build and lazily derived label index
# ----------------------------------------------------------------------
def reference_columns(graph: Graph) -> dict:
    """The CSR columns built one ``append`` per entry — the loop
    ``CSRGraph.__init__`` used before it switched to bulk calls."""
    offsets, adj_edge, adj_other, adj_out = array("q", [0]), array("q"), array("q"), array("b")
    for node_id in graph.node_ids():
        for edge_id, other, outgoing in graph.adjacent(node_id):
            adj_edge.append(edge_id)
            adj_other.append(other)
            adj_out.append(1 if outgoing else 0)
        offsets.append(len(adj_edge))
    label_ids: dict = {}
    return {
        "_offsets": offsets,
        "_adj_edge": adj_edge,
        "_adj_other": adj_other,
        "_adj_out": adj_out,
        "_weights": array("d", [edge.weight for edge in graph.edges()]),
        "_edge_source": array("q", [edge.source for edge in graph.edges()]),
        "_edge_target": array("q", [edge.target for edge in graph.edges()]),
        "_edge_label_ids": array(
            "q", [label_ids.setdefault(edge.label, len(label_ids)) for edge in graph.edges()]
        ),
        "_label_names": list(label_ids),
    }


@settings(max_examples=100, deadline=None)
@given(graph=rich_graphs())
def test_bulk_freeze_matches_per_entry_loop(graph):
    frozen = CSRGraph(graph)
    for name, column in reference_columns(graph).items():
        built = getattr(frozen, name)
        assert (built if isinstance(built, list) else array(column.typecode, built)) == column, name
    # The label index is not copied at freeze: derived on first use, it
    # equals the source's — keys in first-occurrence order, ids ascending.
    assert frozen._nodes_by_label is None
    assert frozen.node_labels() == graph.node_labels()
    assert [frozen.nodes_with_label(label) for label in graph.node_labels()] == [
        graph.nodes_with_label(label) for label in graph.node_labels()
    ]
    # Node and Edge objects stay shared with the source, in plain lists.
    assert type(frozen._nodes) is list and type(frozen._edges) is list
    assert all(frozen.node(i) is graph.node(i) for i in graph.node_ids())
    assert all(frozen.edge(i) is graph.edge(i) for i in graph.edge_ids())


def test_label_index_derived_after_source_mutation_is_as_of_freeze():
    graph = Graph()
    graph.add_node("A")
    graph.add_node("A")
    frozen = graph.freeze()
    graph.add_node("A")
    graph.add_node("B")
    assert frozen.nodes_with_label("A") == [0, 1]
    assert frozen.node_labels() == ["A"]
    with pytest.raises(GraphError, match="found 2"):
        frozen.find_node_by_label("A")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        records = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        records["backend"] = dict(_golden_records())
        GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
