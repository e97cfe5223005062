"""Delta-overlay MVCC: frozen edges, overlay equivalence, generations, ingest.

The PR-8 suite.  The tentpole has one invariant to hold everywhere: a
generation fully determines content.  Whatever view serves a read — the
frozen base, a base ∪ delta overlay, a worker's reconstructed overlay, a
post-compaction refreeze — the rows must be bit-identical to a fresh
full ``freeze()`` of the graph at that generation.  The suite pins that
invariant at three layers:

1. **protocol** — ``OverlayGraph`` answers the whole ``GraphBackend``
   surface exactly like a full refreeze (goldens + a Hypothesis sweep);
2. **dispatch** — the worker pool ships deltas instead of re-snapshots,
   re-snapshots when the writer's compaction moves the base, and refuses
   stale views without tearing the workers down;
3. **serving** — concurrent ``ingest()`` + queries on a ``QueryServer``
   return rows matching a full freeze at each response's recorded
   generation, under serial and process dispatch alike.
"""

from __future__ import annotations

import itertools
import pickle
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctp import ALGORITHMS
from repro.ctp.config import SearchConfig
from repro.ctp.registry import evaluate_ctp
from repro.errors import GraphError, StaleViewError
from repro.graph import CSRGraph, Edge, Graph, GraphDelta, OverlayGraph
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.query.evaluator import evaluate_query
from repro.query.pool import WorkerPool
from repro.serve import (
    DISPATCH_MODES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    IngestRequest,
    QueryRequest,
    QueryServer,
)
from repro.testing import random_graph, rich_graphs
from test_snapshot import graph_content

PROCESS_CONFIG = SearchConfig(parallelism=2)


def _chain_graph():
    """A -r-> B -r-> C, frozen base at generation 3."""
    graph = Graph("golden")
    a, b, c = graph.add_node("A"), graph.add_node("B"), graph.add_node("C")
    graph.add_edge(a, b, "r", 1.0)
    graph.add_edge(b, c, "r", 1.0)
    graph.ensure_base()
    return graph, (a, b, c)


def _assert_backend_equivalent(view, full):
    """``view`` answers the whole GraphBackend surface exactly like ``full``."""
    assert view.num_nodes == full.num_nodes
    assert view.num_edges == full.num_edges
    assert [(n.id, n.label, n.types, n.props) for n in view.nodes()] == [
        (n.id, n.label, n.types, n.props) for n in full.nodes()
    ]
    assert [(e.id, e.source, e.target, e.label, e.weight) for e in view.edges()] == [
        (e.id, e.source, e.target, e.label, e.weight) for e in full.edges()
    ]
    labels = sorted(view.edge_labels())
    assert labels == sorted(full.edge_labels())
    assert sorted(view.node_labels()) == sorted(full.node_labels())
    for node in range(full.num_nodes):
        assert view.adjacent(node) == full.adjacent(node), node
        assert view.degree(node) == full.degree(node)
        assert list(view.neighbor_ids(node)) == list(full.neighbor_ids(node))
        assert [e.id for e in view.out_edges(node)] == [e.id for e in full.out_edges(node)]
        assert [e.id for e in full.in_edges(node)] == [e.id for e in view.in_edges(node)]
        for label in labels:
            assert view.adjacent_filtered(node, [label]) == full.adjacent_filtered(
                node, [label]
            ), (node, label)
    for edge_id in range(full.num_edges):
        assert view.edge_weight(edge_id) == full.edge_weight(edge_id)
        assert view.edge_label(edge_id) == full.edge_label(edge_id)
        assert view.edge_endpoints(edge_id) == full.edge_endpoints(edge_id)
    for label in labels:
        assert list(view.edges_with_label(label)) == list(full.edges_with_label(label))
    for node in full.nodes():
        assert list(view.nodes_with_label(node.label)) == list(full.nodes_with_label(node.label))
        for node_type in node.types:
            assert list(view.nodes_with_type(node_type)) == list(full.nodes_with_type(node_type))


# ----------------------------------------------------------------------
# 1. frozen Edge objects (satellite: direct mutation impossible)
# ----------------------------------------------------------------------
class TestFrozenEdge:
    def test_setattr_raises(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        e = graph.add_edge(a, b, "x", weight=1.0)
        with pytest.raises(GraphError):
            graph.edge(e).weight = 9.0
        with pytest.raises(GraphError):
            graph.edge(e).label = "y"
        assert graph.edge(e).weight == 1.0

    def test_delattr_raises(self):
        edge = Edge(0, 0, 1, "x", 1.0)
        with pytest.raises(GraphError):
            del edge.weight

    def test_pickle_round_trip(self):
        edge = Edge(3, 1, 2, "rel", 2.5, {"k": "v"})
        clone = pickle.loads(pickle.dumps(edge))
        assert (clone.id, clone.source, clone.target) == (3, 1, 2)
        assert (clone.label, clone.weight, clone.props) == ("rel", 2.5, {"k": "v"})
        with pytest.raises(GraphError):
            clone.weight = 0.0  # immutability survives the round trip

    def test_replace_weight_returns_new_object(self):
        edge = Edge(0, 0, 1, "x", 1.0)
        heavier = edge.replace_weight(4.0)
        assert heavier is not edge
        assert heavier.weight == 4.0 and edge.weight == 1.0
        assert (heavier.id, heavier.source, heavier.target) == (0, 0, 1)

    def test_set_edge_weight_keeps_pinned_views(self):
        graph = Graph()
        a, b = graph.add_node("A"), graph.add_node("B")
        e = graph.add_edge(a, b, "x", weight=1.0)
        frozen = graph.freeze()
        generation = graph.generation
        graph.set_edge_weight(e, 7.0)
        assert graph.generation > generation  # tracked mutation
        assert frozen.edge(e).weight == 1.0  # pinned view untouched
        assert graph.edge(e).weight == 7.0


# ----------------------------------------------------------------------
# 2. Graph MVCC state: base, delta, read_view, compact
# ----------------------------------------------------------------------
class TestGraphGenerations:
    def test_read_view_is_base_when_unmutated(self):
        graph, _ = _chain_graph()
        view = graph.read_view()
        assert isinstance(view, CSRGraph)
        assert view is graph.read_view()  # memoized per generation

    def test_read_view_is_overlay_after_mutation(self):
        graph, (a, _b, _c) = _chain_graph()
        graph.add_node("D")
        view = graph.read_view()
        assert isinstance(view, OverlayGraph)
        assert view.generation == graph.generation
        assert view.base_generation == graph.base_generation
        assert view is graph.read_view()
        graph.add_edge(a, 3, "r")
        assert graph.read_view() is not view  # new generation, new view

    def test_overlay_views_are_frozen(self):
        graph, _ = _chain_graph()
        graph.add_node("D")
        view = graph.read_view()
        with pytest.raises(GraphError):
            view.add_node("nope")
        with pytest.raises(GraphError):
            view.add_edge(0, 1, "nope")
        assert view.freeze() is view

    def test_compact_keeps_generation_resets_delta(self):
        graph, (a, _b, c) = _chain_graph()
        graph.add_edge(c, a, "back")
        generation = graph.generation
        assert graph.delta_size == 1
        graph.compact()
        assert graph.generation == generation  # content unchanged
        assert graph.delta_size == 0
        assert graph.compactions == 1
        assert graph.base_generation == generation
        assert isinstance(graph.read_view(), CSRGraph)
        graph.compact()  # idempotent at the same generation
        assert graph.compactions == 1

    def test_reweight_record_spans_at_most_two_deltas(self):
        """Memo survival reads re-weights from the view's delta and from
        what the compaction that built its base folded in: re-weights of
        base-range *and* delta-range edges, never more than the current
        and the previous delta, however many compactions run."""
        graph, (a, _b, c) = _chain_graph()
        for round_ in range(4):
            previous_base = graph.base_generation
            appended = graph.add_edge(c, a, "back")
            graph.set_edge_weight(round_ % 2, 2.0 + round_)
            graph.set_edge_weight(appended, 0.5)
            assert set(graph.read_view().delta.weight_overrides) == {round_ % 2, appended}
            graph.compact()
            assert graph.read_view().folded_weights == (previous_base, frozenset({round_ % 2, appended}))
            assert graph.delta_since_base().weight_overrides == {}
        assert graph.compactions == 4

    def test_delta_pickles_and_rebuilds_overlay(self):
        graph, (a, _b, _c) = _chain_graph()
        base = graph.ensure_base()
        d = graph.add_node("D", types=("t",))
        graph.add_edge(a, d, "r", 2.0)
        graph.set_edge_weight(0, 5.0)
        delta = graph.delta_since_base()
        encoded = delta.encode()
        assert encoded.key == (delta.base_generation, delta.generation)
        assert delta.encode() is encoded  # kept: one pickle per generation
        assert pickle.dumps(delta) == encoded.data  # ...and not pickled along
        clone = encoded.decode()
        assert isinstance(clone, GraphDelta)
        assert clone.size == delta.size == 3
        overlay = OverlayGraph(base, clone)
        _assert_backend_equivalent(overlay, graph.freeze())

    def test_overlay_rejects_mismatched_base(self):
        graph, _ = _chain_graph()
        graph.add_node("D")
        delta = graph.delta_since_base()
        graph.compact()
        foreign = graph.freeze()  # new base: counts include the delta
        with pytest.raises(GraphError):
            OverlayGraph(foreign, delta)

    def test_pickled_graph_restores_mvcc_state(self):
        graph, (a, _b, _c) = _chain_graph()
        graph.add_node("D")
        graph.add_edge(a, 3, "r")
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.generation == graph.generation
        assert clone.delta_size == 0  # base is per-process state, dropped
        _assert_backend_equivalent(clone.freeze(), graph.freeze())


# ----------------------------------------------------------------------
# 2b. compaction splices the new base from the old base's columns
# ----------------------------------------------------------------------
def _held_state(csr):
    """What a CSR store holds, as comparable values: every column's format
    and bytes, the element objects themselves, and the label table and
    indexes with their key orders."""
    return {
        "shape": (csr.name, csr.num_nodes, csr.num_edges),
        "columns": [
            (attr, memoryview(csr.__dict__[attr]).format, csr.__dict__[attr].tobytes())
            for attr, _ in CSRGraph._COLUMN_SPECS
        ],
        "nodes": list(csr._nodes),
        "edges": list(csr._edges),
        "label_names": csr._label_names,
        "nodes_by_type": list(csr._nodes_by_type.items()),
        "edges_by_label": [(label, ids.typecode, ids.tobytes()) for label, ids in csr._edges_by_label.items()],
    }


class TestSplicedCompaction:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(base=rich_graphs(), data=st.data())
    def test_compact_holds_what_a_full_freeze_builds(self, tmp_path_factory, base, data):
        """One to three compactions in a row, each over the base the last
        one built: every batch may add nodes with and without edges, edges
        between new nodes, self-loops, parallel edges, a label and a type
        no base had, props, types merged into new nodes and re-weights of
        base and delta edges (the same edge twice too).  The new base
        holds exactly what ``CSRGraph(graph)`` would, and saves and loads
        back to the same content."""
        graph = base
        graph.ensure_base()
        weights = st.sampled_from([0.25, 0.5, 1.0, 2.0])
        props = st.dictionaries(st.sampled_from(["k", "tag"]), st.integers(0, 3), max_size=1)
        for round_ in range(data.draw(st.integers(1, 3), label="compactions")):
            if data.draw(st.booleans(), label="label index built"):
                graph.ensure_base().node_labels()
            labels = st.sampled_from(["", "a", "名前", f"fresh{round_}"])
            types = st.frozensets(st.sampled_from(["t", "person", f"fresh{round_}"]), max_size=2)
            first_new = graph.num_nodes
            kinds = ["node", "edge", "loop", "parallel", "weight", "retype"]
            for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=10), label="batch"):
                node = st.integers(0, graph.num_nodes - 1)
                if kind == "node":
                    graph.add_node(data.draw(labels), data.draw(types), **data.draw(props))
                elif kind == "retype" and graph.num_nodes > first_new:
                    target = data.draw(st.integers(first_new, graph.num_nodes - 1))
                    graph.update_node(target, data.draw(types), **data.draw(props))
                elif kind in ("edge", "loop") and graph.num_nodes:
                    source = data.draw(node)
                    target = source if kind == "loop" else data.draw(node)
                    graph.add_edge(source, target, data.draw(labels), data.draw(weights), **data.draw(props))
                elif kind == "parallel" and graph.num_edges:
                    twin = graph.edge(data.draw(st.integers(0, graph.num_edges - 1)))
                    graph.add_edge(twin.source, twin.target, twin.label, data.draw(weights))
                elif kind == "weight" and graph.num_edges:
                    graph.set_edge_weight(data.draw(st.integers(0, graph.num_edges - 1)), data.draw(weights))
            if not graph.delta_size:  # a batch that could do nothing yet
                graph.add_node(data.draw(labels))
            expected = CSRGraph(graph)
            folded = (graph.base_generation, frozenset(graph.delta_since_base().weight_overrides))
            built = graph.ensure_base()._nodes_by_label is not None
            spliced = graph.compact()
            assert _held_state(spliced) == _held_state(expected)
            if not built:
                assert spliced._nodes_by_label is None
            assert list(spliced._label_index().items()) == list(expected._label_index().items())
            assert spliced.folded_weights == folded
            assert spliced.base_generation == spliced.source_generation == graph.generation
            assert spliced.view_source is graph and graph.freeze() is spliced
            path = save_snapshot(spliced, tmp_path_factory.mktemp("splice") / "g.snapshot")
            assert graph_content(load_snapshot(path)) == graph_content(expected)

    def test_compaction_never_rebuilds_from_the_dict_store(self, monkeypatch):
        """After the first base, ``compact()`` builds no ``CSRGraph`` from
        the graph: it splices the old base's columns with the delta, and
        carries the base's node-label index forward."""
        graph, (a, _b, c) = _chain_graph()
        graph.ensure_base().node_labels()  # the base holds its label index

        def refuse(self, source):
            raise AssertionError("compaction rebuilt the base from the dict store")

        monkeypatch.setattr(CSRGraph, "__init__", refuse)
        for round_ in range(3):
            new = graph.add_node(f"D{round_}", types=("t",))
            graph.add_edge(c, new, "r")
            graph.add_edge(new, a, f"s{round_}")
            graph.set_edge_weight(0, 2.0 + round_)
            base = graph.compact()
            assert graph.compactions == round_ + 1
            assert base._nodes_by_label is not None
            assert graph.freeze() is base
        monkeypatch.undo()
        assert not hasattr(OverlayGraph, "to_graph")
        _assert_backend_equivalent(graph.read_view(), CSRGraph(graph))


# ----------------------------------------------------------------------
# 3. overlay ≡ full refreeze: goldens at 3 generations, all algorithms
# ----------------------------------------------------------------------
class TestOverlayEquivalence:
    def test_backend_surface_across_generations(self):
        graph, (a, _b, c) = _chain_graph()
        _assert_backend_equivalent(graph.read_view(), graph.freeze())  # gen 1: base
        graph.add_node("D", types=("t",))
        graph.add_edge(c, 3, "r", 2.0)
        graph.add_edge(3, a, "s", 0.5)
        _assert_backend_equivalent(graph.read_view(), graph.freeze())  # gen 2: overlay
        graph.set_edge_weight(0, 9.0)
        _assert_backend_equivalent(graph.read_view(), graph.freeze())  # gen 3: override
        graph.compact()
        _assert_backend_equivalent(graph.read_view(), graph.freeze())  # gen 3: compacted

    def test_type_index_keeps_the_update_order(self):
        """``update_node`` files a new node under a type when it is called,
        not in id order; the overlay and the compacted base keep that order."""
        graph, _ = _chain_graph()
        x = graph.add_node("x")
        y = graph.add_node("y", types=("u",))
        graph.update_node(x, types=("u",))
        assert graph.freeze().nodes_with_type("u") == [y, x]
        assert graph.read_view().nodes_with_type("u") == [y, x]
        assert graph.compact().nodes_with_type("u") == [y, x]

    def test_filtered_adjacency_cache_is_bounded(self):
        """The overlay's label-filtered cache evicts past its cap, like the
        CSR one, and an evicted key still answers like the freeze."""
        graph = random_graph(random.Random(7), num_nodes=8, num_edges=20, num_labels=3)
        graph.ensure_base()
        graph.add_edge(graph.add_node("late"), 0, "l0")
        view, frozen = graph.read_view(), graph.freeze()
        assert isinstance(view, OverlayGraph)
        view._FILTERED_CACHE_CAP = cap = 8
        labels = sorted(graph.edge_labels())
        label_sets = [frozenset(c) for k in (1, 2, 3) for c in itertools.combinations(labels, k)]
        keys = [(node, s) for s in label_sets for node in graph.node_ids()]
        assert len(keys) > 4 * cap
        for _ in range(2):
            for node, label_set in keys:
                assert view.adjacent_filtered(node, label_set) == frozen.adjacent_filtered(node, label_set)
                assert len(view._filtered_cache) <= cap

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_ctp_golden_rows_across_generations(self, algo):
        graph, (a, _b, c) = _chain_graph()
        seeds = [(a,), (c,)]

        def edge_sets(view):
            return sorted(sorted(edges) for edges in evaluate_ctp(view, seeds, algo).edge_sets())

        # Generation 1 — the frozen base: only the chain connects A and C.
        assert edge_sets(graph.read_view()) == [[0, 1]]
        # Generation 2 — a delta edge A->C opens the direct connection.
        graph.add_edge(a, c, "r", 1.0)
        assert edge_sets(graph.read_view()) == [[0, 1], [2]]
        # Generation 3 — a weight override; then the same generation
        # served post-compaction must answer identically.
        graph.set_edge_weight(2, 0.5)
        assert edge_sets(graph.read_view()) == [[0, 1], [2]]
        by_edges = {frozenset(t.edges): t.weight for t in evaluate_ctp(graph.read_view(), seeds, algo)}
        assert by_edges[frozenset({2})] == 0.5  # override visible through CTP weights
        graph.compact()
        assert edge_sets(graph.read_view()) == [[0, 1], [2]]
        assert {
            frozenset(t.edges): t.weight for t in evaluate_ctp(graph.read_view(), seeds, algo)
        } == by_edges

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_overlay_rows_match_full_freeze_property(self, data):
        """Hypothesis sweep: any mutation schedule, overlay ≡ full refreeze."""
        num_nodes = data.draw(st.integers(3, 7), label="nodes")
        graph = Graph("prop")
        for index in range(num_nodes):
            graph.add_node(f"n{index}", types=(f"t{index % 2}",))
        for node in range(1, num_nodes):
            graph.add_edge(node, data.draw(st.integers(0, node - 1), label="parent"), "l")
        graph.ensure_base()
        steps = data.draw(
            st.lists(
                st.tuples(st.sampled_from(["node", "edge", "weight"]), st.integers(0, 10 ** 6)),
                min_size=1,
                max_size=6,
            ),
            label="steps",
        )
        for kind, value in steps:
            if kind == "node":
                graph.add_node(f"x{value}", types=(f"t{value % 2}",))
            elif kind == "edge":
                graph.add_edge(value % graph.num_nodes, (value // 7) % graph.num_nodes, "l")
            else:
                graph.set_edge_weight(value % graph.num_edges, 0.5 + (value % 5))
            view, full = graph.read_view(), graph.freeze()
            seeds = [(0,), (graph.num_nodes - 1,)]
            left = evaluate_ctp(view, seeds, "molesp", max_edges=6)
            right = evaluate_ctp(full, seeds, "molesp", max_edges=6)
            assert [sorted(t.edges) for t in left] == [sorted(t.edges) for t in right]
            assert [t.weight for t in left] == [t.weight for t in right]
        graph.compact()
        _assert_backend_equivalent(graph.read_view(), graph.freeze())


# ----------------------------------------------------------------------
# 4. pool dispatch: deltas ship, base moves re-snapshot, stale views refuse
# ----------------------------------------------------------------------
class TestPoolDelta:
    QUERY = 'SELECT ?t WHERE { CONNECT("A", "C") AS ?t }'

    def test_compaction_at_threshold_crossing(self):
        """The pool never compacts: it ships any delta, and follows the base
        the writer's compaction (at its threshold crossing) moved."""
        graph, (a, _b, _c) = _chain_graph()
        with WorkerPool(graph, workers=1) as pool:
            pool.prepare()
            first_path = pool.snapshot_path
            graph.add_node("D")
            graph.add_edge(a, 3, "r")
            graph.add_node("E")
            assert pool.prepare_for(graph) is not None
            assert pool.resnapshots == 0 and graph.compactions == 0
            assert pool.snapshot_path == first_path
            graph.compact()
            assert pool.prepare_for(graph) is None  # the base is current
            assert pool.stats()["compactions"] == 1 and pool.resnapshots == 1
            assert graph.delta_size == 0
            assert pool.snapshot_path != first_path

    def test_resnapshots_avoided_counted_once_per_generation(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1) as pool:
            pool.prepare()
            graph.add_node("D")
            assert pool.prepare_for(graph) is not None
            assert pool.prepare_for(graph) is not None  # same generation again
            assert pool.resnapshots_avoided == 1
            assert pool.resnapshots == 0

    def test_stale_view_raises_without_breaker_charge(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1) as pool:
            pool.prepare()
            graph.add_node("D")
            stale = graph.read_view()
            graph.add_node("E")
            graph.compact()
            pool.prepare_for(graph)  # the pool's base moves past `stale`
            with pytest.raises(StaleViewError):
                pool.prepare_for(stale)
            assert pool.respawns == 0

    def test_stale_view_dispatch_degrades_with_correct_rows(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1) as pool:
            pool.prepare()
            graph.add_node("D")
            stale = graph.read_view()
            graph.add_node("E")
            graph.compact()
            pool.prepare_for(graph)
            serial = evaluate_query(stale, self.QUERY)
            result = evaluate_query(stale, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert result.rows == serial.rows
            assert result.generation == stale.generation
            assert pool.respawns == 0  # stale view is not a pool fault

    def test_compaction_between_prepare_and_worker_run_degrades_typed(self):
        """A compaction landing after this request's ``prepare_for`` but
        before its worker run moves the pool's base past the one the
        shipped delta was captured against.  The job still names its own
        base: a worker that maps it serves the pinned generation, and one
        that cannot reports a typed ``StaleViewError`` and the dispatch
        serves it in-process — same as a view ``prepare_for`` finds stale —
        instead of failing the request with an untyped ``GraphError``."""
        graph, (a, _b, _c) = _chain_graph()
        with WorkerPool(graph, workers=1) as pool:
            evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)  # warm
            graph.add_edge(a, graph.add_node("D"), "r")
            view = graph.read_view()  # pinned: base + a delta of 2
            serial = evaluate_query(view, self.QUERY)
            real_submit, raced = pool.submit, []

            def racing_submit(*args, **kwargs):
                if not raced:
                    raced.append(True)
                    for label in "EFGH":  # a concurrent ingest compacts...
                        graph.add_edge(a, graph.add_node(label), "r")
                    graph.compact()
                    pool.prepare_for(graph)  # ...and the next dispatch re-snapshots
                return real_submit(*args, **kwargs)

            pool.submit = racing_submit
            result = evaluate_query(view, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert raced and graph.compactions == pool.resnapshots == 1
            assert result.rows == serial.rows
            assert result.generation == view.generation
            # The warm worker still maps the pinned base and may serve it.
            modes = [r.dispatch_mode for r in result.ctp_reports]
            assert modes in (["process"], ["process->serial"])
            assert result.resilience.degraded_to == (None if modes == ["process"] else "serial")
            assert pool.respawns == 0  # an overtaken reader is not a pool fault
            del pool.submit
            after = evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert [r.dispatch_mode for r in after.ctp_reports] == ["process"]

    @pytest.mark.parametrize(
        "warm, mode", [(True, "process"), (False, "process->serial")], ids=["warm", "cold"]
    )
    def test_job_keeps_the_base_it_was_resolved_against(self, warm, mode):
        """A request pins the base view (no delta); another request's
        ``prepare_for`` compacts between this request's resolution and its
        submit.  The job names the base it was resolved against, never the
        pool's newer one: a warm worker still mapping it serves it, and a
        worker spawned after the superseded file was released cannot map
        it and degrades typed — both with the pinned view's rows."""
        graph, (a, _b, c) = _chain_graph()
        with WorkerPool(graph, workers=1) as pool:
            if warm:
                evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            view = graph.read_view()  # pinned: the base itself, no delta
            serial = evaluate_query(view, self.QUERY)
            real_submit, raced = pool.submit, []

            def racing_submit(*args, **kwargs):
                if not raced:
                    raced.append(True)
                    graph.add_edge(a, c, "r")  # a direct A-C edge and two
                    graph.add_node("D")  # nodes, folded in by an ingest...
                    graph.add_node("E")
                    graph.compact()
                    pool.prepare_for(graph)  # ...and another request's dispatch re-snapshots
                return real_submit(*args, **kwargs)

            pool.submit = racing_submit
            result = evaluate_query(view, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert raced and graph.compactions == pool.resnapshots == 1
            assert len(serial.rows) == 1
            assert result.rows == serial.rows
            assert result.generation == view.generation
            assert [r.dispatch_mode for r in result.ctp_reports] == [mode]
            assert pool.respawns == 0
            del pool.submit
            head = evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert len(head.rows) == 2
            assert [r.dispatch_mode for r in head.ctp_reports] == ["process"]

    def test_pinned_head_view_dispatches_after_compaction(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1) as pool:
            pool.prepare()
            graph.add_node("D")
            head = graph.read_view()
            graph.compact()  # lands at head's generation
            assert pool.prepare_for(head) is None
            assert pool.resnapshots == 1
            serial = evaluate_query(head, self.QUERY)
            result = evaluate_query(head, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert result.rows == serial.rows

    @pytest.mark.parametrize("racing", ["ensure_base", "delta_since_base"])
    def test_writer_compaction_inside_resolution_is_followed(self, racing):
        """The writer compacts while a dispatch resolves the source graph:
        right after the pool reads the base, or after it snapshotted and
        before it captures the delta.  The pool must label each snapshot
        with the generation of the base it wrote, notice the base moved,
        and re-snapshot, so the workers serve the folded batch."""
        graph, (a, _b, c) = _chain_graph()
        seeds = [(a,), (c,)]
        with WorkerPool(graph, workers=1) as pool:
            pool.prepare()
            graph.add_node("D")
            real, armed = getattr(graph, racing), [True]

            def racing_call():
                if not armed:
                    return real()
                armed.clear()
                if racing == "ensure_base":
                    result = real()
                    graph.add_edge(a, c, "r", 1.0)  # a direct A-C edge...
                    graph.compact()  # ...folded in by the writer
                    return result
                graph.add_edge(a, c, "r", 1.0)
                graph.compact()
                return real()

            setattr(graph, racing, racing_call)
            rows, _seconds = pool.submit("molesp", seeds, SearchConfig()).result(timeout=60)
            delattr(graph, racing)
            assert not armed and graph.compactions == pool.resnapshots == 1
            assert pool.snapshot_generation == graph.base_generation == graph.generation
            serial = evaluate_ctp(graph.read_view(), seeds)
            assert sorted(map(sorted, rows.edge_sets())) == [[0, 1], [2]]
            assert sorted(map(sorted, serial.edge_sets())) == [[0, 1], [2]]

    def test_parent_encodes_a_generation_once(self, monkeypatch):
        """Four fan-outs at one generation: the delta is pickled once, by
        the first preflight, and every job ships those kept bytes."""
        graph, (a, b, c) = _chain_graph()
        d = graph.add_node("D")
        graph.add_edge(c, d, "r")
        pickled = []
        real_getstate = GraphDelta.__getstate__

        def counting_getstate(delta):
            pickled.append(delta.generation)
            return real_getstate(delta)

        monkeypatch.setattr(GraphDelta, "__getstate__", counting_getstate)
        with WorkerPool(graph, workers=1) as pool:
            for source, target in (("A", "C"), ("A", "D"), ("B", "D"), ("A", "B")):
                query = f'SELECT ?t WHERE {{ CONNECT("{source}", "{target}") AS ?t }}'
                result = evaluate_query(graph, query, base_config=PROCESS_CONFIG, pool=pool)
                assert result.rows == evaluate_query(graph, query).rows
                assert [r.dispatch_mode for r in result.ctp_reports] == ["process"]
            assert pool.dispatches == 4
        assert pickled == [graph.generation]

    def test_unpicklable_delta_property_degrades_inline(self):
        """A node appended after the base with a property pickle refuses
        cannot ride the delta: the fan-out runs inline with the serial rows,
        and the workload, not the pool, is at fault — the workers are not
        torn down.  A second fan-out at the generation degrades the same way."""
        graph, (a, _b, _c) = _chain_graph()
        graph.add_edge(a, graph.add_node("X", f=lambda: 1), "r")
        serial = evaluate_query(graph, self.QUERY)
        with WorkerPool(graph, workers=1) as pool:
            for _ in range(2):
                result = evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
                assert result.resilience.degraded_to == "serial"
                assert [r.dispatch_mode for r in result.ctp_reports] == ["process->serial"]
                assert result.rows == serial.rows
            assert pool.respawns == 0
            assert pool.dispatches == 0


# ----------------------------------------------------------------------
# 5. server ingest: atomic batches, typed errors, telemetry
# ----------------------------------------------------------------------
class TestServerIngest:
    def test_batch_applies_and_reports_ids(self):
        graph, (a, _b, c) = _chain_graph()
        with QueryServer(graph, dispatch_mode="serial", max_pending=2) as server:
            result = server.ingest(
                IngestRequest(
                    nodes=(("D", "t"), ("E", "")),
                    edges=((c, 3, "r", 2.0), (3, 4, "r", 1.0)),
                    weights=((0, 5.0),),
                )
            )
            assert result.ok
            assert result.node_ids == (3, 4)
            assert result.edge_ids == (2, 3)
            assert result.generation == graph.generation
            assert result.delta_size == graph.delta_size
            assert graph.edge(0).weight == 5.0
            assert server.stats()["ingests"] == 1

    def test_invalid_batch_is_atomic(self):
        graph, _ = _chain_graph()
        before = (graph.num_nodes, graph.num_edges, graph.generation)
        with QueryServer(graph, dispatch_mode="serial", max_pending=2) as server:
            result = server.ingest(
                IngestRequest(nodes=(("D", ""),), edges=((0, 99, "r", 1.0),))
            )
            assert result.status == STATUS_ERROR
            assert "node id" in result.error
            # Nothing landed: not even the valid node of the batch.
            assert (graph.num_nodes, graph.num_edges, graph.generation) == before
            bad_weight = server.ingest(IngestRequest(weights=((99, 1.0),)))
            assert bad_weight.status == STATUS_ERROR
            assert server.stats()["errors"] == 2

    def test_empty_batch_rejected_at_validation(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            IngestRequest()

    def test_closed_server_rejects_ingest(self):
        graph, _ = _chain_graph()
        server = QueryServer(graph, dispatch_mode="serial", max_pending=2)
        server.close()
        result = server.ingest(IngestRequest(nodes=(("D", ""),)))
        assert result.status == STATUS_REJECTED

    def test_serial_dispatch_compacts_inline(self):
        graph, _ = _chain_graph()
        with QueryServer(graph, dispatch_mode="serial", max_pending=2) as server:
            threshold = server.compaction_threshold
            server.ingest(IngestRequest(nodes=tuple((f"n{i}", "") for i in range(threshold))))
            assert graph.delta_size == threshold and graph.compactions == 0  # not past it
            server.ingest(IngestRequest(nodes=(("D", ""),)))
            assert graph.delta_size == 0  # compacted inside ingest
            assert graph.compactions == 1

    @pytest.mark.parametrize("mode", DISPATCH_MODES)
    def test_ingest_past_the_threshold_compacts_before_returning(self, mode):
        """The writer folds the delta in, under either dispatch mode; under
        process dispatch the pool's next dispatch re-snapshots the moved
        base onto the same warm workers."""
        graph, (a, _b, c) = _chain_graph()
        query = 'SELECT ?s ?t WHERE { CONNECT("A", "C") AS ?s CONNECT("A", "C") AS ?t }'
        with QueryServer(graph, dispatch_mode=mode, workers=1, max_pending=2) as server:
            assert server.handle(QueryRequest(query=query)).ok
            padding = tuple((f"n{i}", "") for i in range(server.compaction_threshold))
            result = server.ingest(IngestRequest(nodes=padding, edges=((a, c, "r", 1.0),)))
            assert result.ok and result.delta_size == 0
            assert graph.delta_size == 0 and graph.compactions == 1
            response = server.handle(QueryRequest(query=query))
            assert response.ok and response.stats.generation == result.generation
            assert response.stats.compactions == 1
            expected = evaluate_query(graph.freeze(), query)
            assert len(expected.rows) == 4  # A-C and A-B-C, for each CTP
            assert response.rows == expected.rows
            if mode == "process":
                assert response.stats.dispatch_modes == ["process", "memo"]
                assert server.pool.resnapshots == 1 and server.pool.respawns == 0
                assert server.stats()["pool"]["compactions"] == 1

    def test_response_stats_carry_generation(self):
        graph, _ = _chain_graph()
        query = 'SELECT ?t WHERE { CONNECT("A", "C") AS ?t }'
        with QueryServer(graph, dispatch_mode="serial", max_pending=2) as server:
            ingest = server.ingest(IngestRequest(nodes=(("D", ""),)))
            response = server.handle(QueryRequest(query=query))
            assert response.ok
            assert response.stats.generation == ingest.generation
            assert response.stats.delta_size == 1


# ----------------------------------------------------------------------
# 6. concurrent ingest + queries: every response ≡ full freeze at its
#    recorded generation, under every dispatch mode (the tentpole gate)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", DISPATCH_MODES)
def test_concurrent_ingest_and_queries_are_generation_consistent(mode):
    graph = Graph("live")
    hub = graph.add_node("hub")
    for group in range(2):
        for tip in range(2):
            node = graph.add_node(f"s{group}_{tip}", types=(f"g{group}",))
            graph.add_edge(hub, node, "e", 1.0)
    query = """
    SELECT ?t WHERE {
      FILTER(type(?x) = "g0")
      FILTER(type(?y) = "g1")
      CONNECT(?x, ?y) AS ?t MAX 4
    }
    """
    rounds, queries = 5, 8
    snapshots = {}

    with QueryServer(
        graph,
        dispatch_mode=mode,
        workers=1,
        max_pending=queries + 1,
    ) as server:
        server.prewarm()
        snapshots[graph.generation] = pickle.dumps(graph)

        # Untyped, unlinked padding past half the threshold: the 2nd and
        # 4th batches compact while queries are in flight.
        padding = server.compaction_threshold // 2

        def writer():
            for round_index in range(rounds):
                new_id = graph.num_nodes
                result = server.ingest(
                    IngestRequest(
                        nodes=((f"d{round_index}", f"g{round_index % 2}"),)
                        + tuple((f"pad{round_index}_{i}", "") for i in range(padding)),
                        edges=((hub, new_id, "e", 1.0),),
                    )
                )
                assert result.ok, result.error
                # Sole writer: the graph cannot move between the ingest
                # returning and this pickle, so the snapshot is exactly
                # the content of `result.generation`.
                snapshots[result.generation] = pickle.dumps(graph)

        def reader(_index):
            response = server.handle(QueryRequest(query=query))
            assert response.status == STATUS_OK, response.error
            return response

        # One response before any write pins the initial generation...
        responses = [reader(-1)]
        with ThreadPoolExecutor(max_workers=3) as executor:
            ingest_future = executor.submit(writer)
            responses.extend(executor.map(reader, range(queries)))
            ingest_future.result()
        # ...and one after all writes covers the final generation too.
        responses.append(reader(queries))
    assert graph.compactions == 2

    observed = set()
    for response in responses:
        generation = response.stats.generation
        assert generation in snapshots  # atomic batches: no torn generation
        observed.add(generation)
        replay = pickle.loads(snapshots[generation])
        expected = evaluate_query(replay.freeze(), query)
        assert response.columns == expected.columns
        assert response.rows == expected.rows, (mode, generation)
    assert len(observed) >= 2  # traffic genuinely spanned generations
