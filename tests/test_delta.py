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
   compacts at its threshold, flags thrash, and refuses stale views
   without charging the breaker;
3. **serving** — concurrent ``ingest()`` + queries on a ``QueryServer``
   return rows matching a full freeze at each response's recorded
   generation, under serial, thread, and process dispatch alike.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctp import ALGORITHMS
from repro.ctp.config import SearchConfig
from repro.ctp.registry import evaluate_ctp
from repro.errors import GraphError, PoolThrashWarning, StaleViewError
from repro.graph import CSRGraph, Edge, Graph, GraphDelta, OverlayGraph
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

PROCESS_CONFIG = SearchConfig(parallelism=2, parallelism_mode="process")


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
        clone = pickle.loads(pickle.dumps(delta))
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
# 4. pool dispatch: deltas ship, compaction triggers, stale views refuse
# ----------------------------------------------------------------------
class TestPoolDelta:
    QUERY = 'SELECT ?t WHERE { CONNECT("A", "C") AS ?t }'

    def test_compaction_at_threshold_crossing(self):
        graph, (a, _b, _c) = _chain_graph()
        with WorkerPool(graph, workers=1, compaction_threshold=2) as pool:
            pool.prepare()
            first_path = pool.snapshot_path
            graph.add_node("D")
            graph.add_edge(a, 3, "r")
            assert pool.prepare_for(graph) is not None  # delta of 2: under threshold
            assert pool.resnapshots == 0 and pool.compactions == 0
            assert pool.snapshot_path == first_path
            graph.add_node("E")
            assert pool.prepare_for(graph) is None  # 3 > 2: compacted, base is current
            assert pool.compactions == 1 and pool.resnapshots == 1
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

    def test_thrash_warning_on_rapid_resnapshots(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1, compaction_threshold=0) as pool:
            pool.prepare()
            graph.add_node("D")
            pool.prepare_for(graph)  # first resnapshot: no prior episode, no warning
            assert pool.resnapshot_thrash == 0
            graph.add_node("E")
            with pytest.warns(PoolThrashWarning):
                pool.prepare_for(graph)  # consecutive resnapshot, zero dispatches apart
            assert pool.resnapshot_thrash == 1
            assert pool.resnapshots == 2

    def test_stale_view_raises_without_breaker_charge(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1, compaction_threshold=0) as pool:
            pool.prepare()
            graph.add_node("D")
            stale = graph.read_view()
            graph.add_node("E")
            pool.prepare_for(graph)  # compacts: the pool's base moves past `stale`
            with pytest.raises(StaleViewError):
                pool.prepare_for(stale)
            assert pool.breaker.state == "closed"

    def test_stale_view_dispatch_degrades_with_correct_rows(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1, compaction_threshold=0) as pool:
            pool.prepare()
            graph.add_node("D")
            stale = graph.read_view()
            graph.add_node("E")
            pool.prepare_for(graph)
            serial = evaluate_query(stale, self.QUERY)
            result = evaluate_query(stale, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert result.rows == serial.rows
            assert result.generation == stale.generation
            assert pool.breaker.state == "closed"  # stale view is not a pool fault

    def test_compaction_between_prepare_and_worker_run_degrades_typed(self):
        """A compaction landing after this request's ``prepare_for`` but
        before its worker run moves the pool's base past the one the
        shipped delta was captured against.  The job still names its own
        base: a worker that maps it serves the pinned generation, and one
        that cannot reports a typed ``StaleViewError`` and the dispatch
        serves it in-process — same as a view ``prepare_for`` finds stale —
        instead of failing the request with an untyped ``GraphError``."""
        graph, (a, _b, _c) = _chain_graph()
        with WorkerPool(graph, workers=1, compaction_threshold=2) as pool:
            evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)  # warm
            graph.add_edge(a, graph.add_node("D"), "r")
            view = graph.read_view()  # pinned: base + a delta of 2
            serial = evaluate_query(view, self.QUERY)
            real_submit, raced = pool.submit, []

            def racing_submit(*args, **kwargs):
                if not raced:
                    raced.append(True)
                    for label in "EFGH":  # a concurrent ingest crosses the threshold...
                        graph.add_edge(a, graph.add_node(label), "r")
                    pool.prepare_for(graph)  # ...and its dispatch compacts
                return real_submit(*args, **kwargs)

            pool.submit = racing_submit
            result = evaluate_query(view, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert raced and pool.compactions == 1
            assert result.rows == serial.rows
            assert result.generation == view.generation
            # The warm worker still maps the pinned base and may serve it.
            modes = [r.dispatch_mode for r in result.ctp_reports]
            assert modes in (["process"], ["process->serial"])
            assert result.resilience.degraded_to == (None if modes == ["process"] else "serial")
            assert pool.breaker.state == "closed"  # an overtaken reader is not a pool fault
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
        with WorkerPool(graph, workers=1, compaction_threshold=2) as pool:
            if warm:
                evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            view = graph.read_view()  # pinned: the base itself, no delta
            serial = evaluate_query(view, self.QUERY)
            real_submit, raced = pool.submit, []

            def racing_submit(*args, **kwargs):
                if not raced:
                    raced.append(True)
                    graph.add_edge(a, c, "r")  # a direct A-C edge and two
                    graph.add_node("D")  # nodes: a delta of 3 > 2...
                    graph.add_node("E")
                    pool.prepare_for(graph)  # ...another request's dispatch compacts
                return real_submit(*args, **kwargs)

            pool.submit = racing_submit
            result = evaluate_query(view, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert raced and pool.compactions == 1
            assert len(serial.rows) == 1
            assert result.rows == serial.rows
            assert result.generation == view.generation
            assert [r.dispatch_mode for r in result.ctp_reports] == [mode]
            assert pool.breaker.state == "closed"
            del pool.submit
            head = evaluate_query(graph, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert len(head.rows) == 2
            assert [r.dispatch_mode for r in head.ctp_reports] == ["process"]

    def test_pinned_head_view_dispatches_after_compaction(self):
        graph, _ = _chain_graph()
        with WorkerPool(graph, workers=1, compaction_threshold=0) as pool:
            pool.prepare()
            graph.add_node("D")
            head = graph.read_view()
            assert pool.prepare_for(head) is None  # compaction landed at head's generation
            assert pool.compactions == 1
            serial = evaluate_query(head, self.QUERY)
            result = evaluate_query(head, self.QUERY, base_config=PROCESS_CONFIG, pool=pool)
            assert result.rows == serial.rows

    def test_pool_rejects_bad_threshold(self):
        graph, _ = _chain_graph()
        from repro.errors import PoolError

        with pytest.raises(PoolError):
            WorkerPool(graph, workers=1, compaction_threshold=-1)


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
        with QueryServer(
            graph, dispatch_mode="serial", max_pending=2, compaction_threshold=1
        ) as server:
            server.ingest(IngestRequest(nodes=(("D", ""), ("E", ""))))
            assert graph.delta_size == 0  # 2 > 1: compacted inside ingest
            assert graph.compactions == 1

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
        compaction_threshold=3,
    ) as server:
        server.prewarm()
        snapshots[graph.generation] = pickle.dumps(graph)

        def writer():
            for round_index in range(rounds):
                new_id = graph.num_nodes
                result = server.ingest(
                    IngestRequest(
                        nodes=((f"d{round_index}", f"g{round_index % 2}"),),
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
