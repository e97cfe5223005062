"""Persistent worker pool + query server: warmth, health, admission, deadlines.

The PR-6 suite.  The amortization tentpole has three claims to hold:

1. **Determinism** — rows produced through a *reused* warm pool are
   bit-identical to serial dispatch for every algorithm (a warm worker's
   long-lived context must never leak one request's state into another's
   rows);
2. **Resilience** — a crashed worker costs one respawn, not silent
   thread-fallback forever, and a closed/mismatched pool degrades to the
   historical dispatch chain instead of failing the query;
3. **Serving discipline** — admission control rejects (never queues
   unboundedly), expired deadlines are refused up front, live deadlines
   cap per-CTP budgets, and every refusal is a typed response.

Plus the satellite regressions: mutation generations invalidating memo
entries and snapshots, and eager auto-snapshot temp-file reaping.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.ctp import ALGORITHMS
from repro.ctp.config import SearchConfig
from repro.ctp.context import SearchContext
from repro.errors import ConfigError, PoolError, ValidationError
from repro.graph.graph import Graph
from repro.graph.snapshot import (
    _AUTO_SNAPSHOTS,
    _reap_stale_snapshots,
    ensure_snapshot,
    release_auto_snapshot,
)
from repro.query.evaluator import evaluate_query
from repro.query.parallel import evaluate_queries
from repro.query.pool import WorkerPool
from repro.serve import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    IngestRequest,
    QueryRequest,
    QueryServer,
)

MATRIX_QUERY = """
SELECT ?x ?w1 ?w2 ?w3 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "National Liberal Party") AS ?w2 MAX 2
  CONNECT(?x, "France") AS ?w3 MAX 3
}
"""

PROCESS_CONFIG = SearchConfig(parallelism=2, parallelism_mode="process")


def _pool_eval(graph, pool, algorithm="molesp", query=MATRIX_QUERY, config=PROCESS_CONFIG):
    return evaluate_query(graph, query, algorithm=algorithm, base_config=config, pool=pool)


# ----------------------------------------------------------------------
# 1. warm-pool determinism: rows identical cold vs reused pool, all algos
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_warm_pool_rows_identical_to_serial(fig1, algo):
    serial = evaluate_query(fig1, MATRIX_QUERY, algorithm=algo)
    with WorkerPool(fig1, workers=2) as pool:
        cold = _pool_eval(fig1, pool, algorithm=algo)
        warm = _pool_eval(fig1, pool, algorithm=algo)
        assert pool.warm
    assert cold.columns == serial.columns and cold.rows == serial.rows
    assert warm.columns == serial.columns and warm.rows == serial.rows


def test_pool_persists_across_queries(fig1):
    """One executor epoch serves many queries — the amortization claim."""
    with WorkerPool(fig1, workers=1) as pool:
        assert not pool.warm  # lazy: nothing spawned yet
        first = _pool_eval(fig1, pool)
        assert pool.warm
        dispatches_after_first = pool.dispatches
        second = _pool_eval(fig1, pool)
        assert pool.respawns == 0 and pool.resnapshots == 0
        # The second query reused the SAME executor (more dispatches, no
        # rebuild) — not a fresh one per call.
        assert pool.dispatches > dispatches_after_first
    assert first.rows == second.rows
    assert [r.dispatch_mode for r in first.ctp_reports] == ["process", "process", "memo"]


def test_pool_ping_reports_loaded_worker(fig1):
    with WorkerPool(fig1, workers=1) as pool:
        probe = pool.ping()
        assert probe["graph_loaded"]
        assert probe["pid"] != os.getpid()
        assert pool.healthy()
        assert pool.warm  # a served probe proves spawned workers
    assert not pool.healthy()  # closed pools are never healthy


# ----------------------------------------------------------------------
# 2. resilience: respawn after a crash, degrade when the pool is unusable
# ----------------------------------------------------------------------
def test_pool_respawns_after_worker_crash(fig1):
    serial = evaluate_query(fig1, MATRIX_QUERY)
    with WorkerPool(fig1, workers=1) as pool:
        _pool_eval(fig1, pool)
        # Kill every live worker: the next fan-out hits BrokenProcessPool
        # and must rebuild the executor, not fall back to threads forever.
        for pid in list(pool._executor._processes):
            os.kill(pid, signal.SIGKILL)
        result = _pool_eval(fig1, pool)
        assert pool.respawns == 1
        assert result.rows == serial.rows
        assert [r.dispatch_mode for r in result.ctp_reports] == ["process", "process", "memo"]
        # ...and the respawned executor keeps serving.
        again = _pool_eval(fig1, pool)
        assert again.rows == serial.rows
        assert pool.respawns == 1


def test_explicit_respawn_counts_and_recovers(fig1):
    with WorkerPool(fig1, workers=1) as pool:
        _pool_eval(fig1, pool)
        pool.respawn()
        assert pool.respawns == 1
        assert not pool.warm  # a respawned-but-idle executor is cold again
        assert pool.healthy()


def test_closed_pool_rejects_and_evaluator_degrades(fig1):
    pool = WorkerPool(fig1, workers=1)
    pool.close()
    with pytest.raises(PoolError):
        pool.submit("molesp", [[0]], SearchConfig())
    with pytest.raises(PoolError):
        pool.respawn()
    pool.close()  # idempotent
    # An injected-but-closed pool must not fail the query: the dispatch
    # gate ignores it and the per-call chain runs.
    serial = evaluate_query(fig1, MATRIX_QUERY)
    result = _pool_eval(fig1, pool)
    assert result.rows == serial.rows


def test_pool_ignored_for_other_graphs(fig1):
    other = Graph()
    a, b = other.add_node("A"), other.add_node("B")
    other.add_edge(a, b, "e")
    with WorkerPool(other, workers=1) as pool:
        serial = evaluate_query(fig1, MATRIX_QUERY)
        result = _pool_eval(fig1, pool)  # bound to `other`, not fig1
        assert result.rows == serial.rows
        assert pool.dispatches == 0  # never trusted with a foreign graph


def test_pool_validates_workers(fig1):
    with pytest.raises(PoolError):
        WorkerPool(fig1, workers=0)


# ----------------------------------------------------------------------
# snapshot generations: deltas ship to warm workers, compaction re-snapshots
# ----------------------------------------------------------------------
def test_pool_ships_delta_after_mutation(fig1):
    # Default MVCC behavior: a small mutation rides the delta overlay to
    # the existing workers — no resnapshot, no respawn, same base path.
    with WorkerPool(fig1, workers=1) as pool:
        _pool_eval(fig1, pool)
        first_path = pool.snapshot_path
        node = fig1.add_node("Zed")
        fig1.add_edge(node, 0, "rel")
        serial = evaluate_query(fig1, MATRIX_QUERY)
        result = _pool_eval(fig1, pool)
        assert pool.resnapshots == 0
        assert pool.resnapshots_avoided >= 1
        assert pool.snapshot_path == first_path
        assert os.path.exists(first_path)
        assert result.rows == serial.rows


def test_pool_resnapshots_after_mutation_legacy_threshold(fig1):
    # compaction_threshold=0 restores the legacy contract: any mutation
    # compacts at the next dispatch boundary, which re-snapshots and
    # releases the stale temp file eagerly.
    with WorkerPool(fig1, workers=1, compaction_threshold=0) as pool:
        _pool_eval(fig1, pool)
        first_path = pool.snapshot_path
        node = fig1.add_node("Zed")
        fig1.add_edge(node, 0, "rel")
        serial = evaluate_query(fig1, MATRIX_QUERY)
        result = _pool_eval(fig1, pool)
        assert pool.resnapshots == 1
        assert pool.compactions == 1
        assert pool.snapshot_path != first_path
        assert not os.path.exists(first_path)  # stale file released eagerly
        assert result.rows == serial.rows


def _mapped_snapshots(pid):
    """Distinct auto-snapshot files ``pid`` maps (Linux ``/proc``)."""
    with open(f"/proc/{pid}/maps", encoding="ascii", errors="replace") as handle:
        return {line.split(None, 5)[-1].strip() for line in handle if "repro-csr-" in line}


def test_base_moves_rebase_warm_workers_without_respawn(fig1):
    """Each compaction moves the workers' base, not the workers: the same
    processes re-map the new snapshot, answer every algorithm exactly like
    serial at every generation, and never map more than one base."""
    with WorkerPool(fig1, workers=2, compaction_threshold=0) as pool:
        _pool_eval(fig1, pool)  # two jobs at once: both workers spawn
        pids = set(pool._executor._processes)
        assert len(pids) == 2
        for generation in range(4):
            if generation:
                fig1.add_edge(fig1.add_node(f"Zed{generation}"), 0, "rel")
            for algo in sorted(ALGORITHMS):
                serial = evaluate_query(fig1, MATRIX_QUERY, algorithm=algo)
                assert _pool_eval(fig1, pool, algorithm=algo).rows == serial.rows, algo
            assert pool.ping()["pid"] in pids
            assert set(pool._executor._processes) == pids
            if os.path.exists("/proc/self/maps"):
                for pid in pids:
                    assert len(_mapped_snapshots(pid)) <= 1, _mapped_snapshots(pid)
        assert pool.compactions == pool.resnapshots == 3
        assert pool.respawns == pool.recycles == 0


def test_lazily_spawned_worker_maps_the_live_base(fig1, monkeypatch):
    """Forkserver workers spawn on demand, possibly after a base move
    released the spawn-time file their executor was built with: such a
    worker starts empty and maps the base its first job names."""
    import multiprocessing

    from repro.query import parallel

    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("forkserver start method unavailable")
    context = multiprocessing.get_context("forkserver")
    monkeypatch.setattr(parallel, "_process_pool_context", lambda: context)
    with WorkerPool(fig1, workers=2, compaction_threshold=0) as pool:
        pool.prepare()  # executor built over the first base; nothing spawned
        spawn_time_path = pool.snapshot_path
        fig1.add_edge(fig1.add_node("Zed"), 0, "rel")
        pool.prepare_for(fig1)  # compacts and releases the spawn-time file
        assert not os.path.exists(spawn_time_path)
        serial = evaluate_query(fig1, MATRIX_QUERY)
        result = _pool_eval(fig1, pool)
        assert result.rows == serial.rows
        assert [r.dispatch_mode for r in result.ctp_reports] == ["process", "process", "memo"]
        assert pool.ping()["graph_loaded"]
        assert pool.respawns == 0


def test_pool_close_releases_auto_snapshot(fig1):
    with WorkerPool(fig1, workers=1) as pool:
        pool.prepare()
        path = pool.snapshot_path
        assert path is not None and os.path.exists(path)
    assert not os.path.exists(path)
    assert path not in _AUTO_SNAPSHOTS


def test_release_auto_snapshot_ignores_foreign_paths(tmp_path):
    foreign = tmp_path / "explicit.snapshot"
    foreign.write_bytes(b"not ours")
    assert release_auto_snapshot(str(foreign)) is False
    assert foreign.exists()  # explicitly saved files are never touched
    assert release_auto_snapshot(None) is False


def test_reap_stale_snapshots(tmp_path):
    dead = tmp_path / "repro-csr-999999999-abc.snapshot"
    dead.write_bytes(b"orphan")
    own = tmp_path / f"repro-csr-{os.getpid()}-def.snapshot"
    own.write_bytes(b"mine")
    unrelated = tmp_path / "keep.snapshot"
    unrelated.write_bytes(b"keep")
    reaped = _reap_stale_snapshots(str(tmp_path))
    assert reaped == 1
    assert not dead.exists()
    assert own.exists() and unrelated.exists()


def test_auto_snapshots_are_pid_tagged(fig1):
    _, path = ensure_snapshot(fig1.freeze())
    try:
        assert f"repro-csr-{os.getpid()}-" in os.path.basename(path)
    finally:
        release_auto_snapshot(path)


# ----------------------------------------------------------------------
# mutation generations: memo + freeze() can no longer serve stale results
# ----------------------------------------------------------------------
def _weighted_path_graph():
    graph = Graph("weighted")
    a = graph.add_node("A", types=("src",))
    b = graph.add_node("B", types=("dst",))
    mid1 = graph.add_node("m1")
    mid2 = graph.add_node("m2")
    graph.add_edge(a, mid1, "e", weight=1.0)   # edges 0/1: light route
    graph.add_edge(mid1, b, "e", weight=1.0)
    graph.add_edge(a, mid2, "e", weight=5.0)   # edges 2/3: heavy route
    graph.add_edge(mid2, b, "e", weight=5.0)
    return graph


WEIGHT_QUERY = """
SELECT ?w WHERE {
  FILTER(type(?x) = "src")
  FILTER(type(?y) = "dst")
  CONNECT(?x, ?y) AS ?w SCORE weight TOP 1
}
"""


def test_generation_counter_bumps_on_every_mutator():
    graph = Graph()
    assert graph.generation == 0
    a = graph.add_node("A")
    b = graph.add_node("B")
    edge = graph.add_edge(a, b, "e")
    after_build = graph.generation
    assert after_build == 3
    graph.set_edge_weight(edge, 2.5)
    assert graph.generation == after_build + 1
    assert graph.edge(edge).weight == 2.5
    with pytest.raises(Exception):
        graph.set_edge_weight(999, 1.0)


def test_freeze_memo_invalidated_by_weight_update():
    graph = _weighted_path_graph()
    frozen = graph.freeze()
    assert graph.freeze() is frozen  # memoized while untouched
    graph.set_edge_weight(0, 50.0)   # same size, different weights
    refrozen = graph.freeze()
    assert refrozen is not frozen
    assert refrozen.edge(0).weight == 50.0


def test_same_size_mutation_invalidates_cross_query_memo():
    """The PR-5 fingerprint (num_nodes, num_edges) missed this exact case:
    a weight update changes the best-scoring tree but not the graph size,
    so a shared context replayed the stale winner."""
    graph = _weighted_path_graph()
    context = SearchContext()
    first = evaluate_query(graph, WEIGHT_QUERY, context=context)
    assert len(first.rows) == 1
    assert first.rows[0][0].edges == frozenset({0, 1})  # light route wins
    graph.set_edge_weight(0, 50.0)  # now the old light route is heaviest
    graph.set_edge_weight(1, 50.0)
    second = evaluate_query(graph, WEIGHT_QUERY, context=context)
    assert second.rows[0][0].edges == frozenset({2, 3})
    assert context.generation_flushes >= 1


def test_batch_memo_invalidated_by_same_size_mutation():
    graph = _weighted_path_graph()
    batch1 = evaluate_queries(graph, [WEIGHT_QUERY], context=SearchContext())
    context = SearchContext()
    evaluate_queries(graph, [WEIGHT_QUERY], context=context)
    graph.set_edge_weight(0, 50.0)
    graph.set_edge_weight(1, 50.0)
    batch2 = evaluate_queries(graph, [WEIGHT_QUERY], context=context)
    assert batch1[0].rows[0][0].edges == frozenset({0, 1})
    assert batch2[0].rows[0][0].edges == frozenset({2, 3})


def _survival_graph():
    """``A-m-B`` is the only 2-edge connection of A and B; ``c`` hangs off
    A and leads to the chain ``f0..f4``, at least two hops from both seeds."""
    graph = Graph("survival")
    a, b, m, c = (graph.add_node(label) for label in ("A", "B", "m", "c"))
    graph.add_edge(a, m, "r")  # edge 0
    graph.add_edge(m, b, "r")  # edge 1
    graph.add_edge(a, c, "r")  # edge 2
    far = [graph.add_node(f"f{i}") for i in range(5)]
    graph.add_edge(c, far[0], "r")  # edge 3
    for left, right in zip(far, far[1:]):  # edges 4..7
        graph.add_edge(left, right, "r")
    return graph


SURVIVAL_QUERY = 'SELECT ?w WHERE { CONNECT("A", "B") AS ?w MAX 2 }'
#: New nodes and edges on the far chain, plus a re-weight of f1-f2 (edge 5):
#: nothing within one hop of A *and* of B.
FAR_BATCH = IngestRequest(
    nodes=(("x0", ""), ("x1", "")),
    edges=((9, 6, "r", 1.0), (7, 10, "r", 1.0), (8, 5, "r", 2.0)),
    weights=((5, 3.0),),
)


def _carried(server):
    return server.stats()["context"]["memo_carried"]


def _assert_serial_rows(server, response):
    """Rows equal a serial evaluation of the request at its generation."""
    assert response.status == STATUS_OK
    assert response.stats.generation == server.graph.generation
    assert response.rows == evaluate_query(server.graph.read_view(), SURVIVAL_QUERY).rows


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_far_ingest_keeps_the_memo_entry_near_ingest_recomputes(mode):
    graph = _survival_graph()
    with QueryServer(graph, workers=1, dispatch_mode=mode) as server:
        request = QueryRequest(query=SURVIVAL_QUERY)
        first = server.handle(request)
        _assert_serial_rows(server, first)
        assert first.stats.memo_hits == 0 and len(first.rows) == 1

        assert server.ingest(FAR_BATCH).ok
        carried = server.handle(request)
        assert carried.stats.memo_hits == carried.stats.ctp_count == 1
        assert carried.stats.dispatch_modes == ["memo"]
        assert _carried(server) == 1
        _assert_serial_rows(server, carried)

        # A new leaf hanging off m touches the one-hop balls of both seeds,
        # but no minimal tree of two edges can use it: carried.
        assert server.ingest(IngestRequest(nodes=(("x2", ""),), edges=((2, 11, "r", 1.0),))).ok
        dangling = server.handle(request)
        assert dangling.stats.memo_hits == 1 and _carried(server) == 2
        _assert_serial_rows(server, dangling)

        # c -> B closes a second 2-edge connection, A-c-B: recomputed.
        assert server.ingest(IngestRequest(edges=((3, 1, "r", 1.0),))).ok
        closed = server.handle(request)
        assert closed.stats.memo_hits == 0 and _carried(server) == 2
        assert len(closed.rows) == 2
        _assert_serial_rows(server, closed)

        # Re-weighting A-m, inside the first row's tree: recomputed.
        assert server.ingest(IngestRequest(weights=((0, 4.0),))).ok
        heavier = server.handle(request)
        assert heavier.stats.memo_hits == 0 and _carried(server) == 2
        assert {row[0].edges: row[0].weight for row in heavier.rows}[frozenset({0, 1})] == 5.0
        _assert_serial_rows(server, heavier)


@pytest.mark.parametrize("mode", ["serial", "process"])
@pytest.mark.filterwarnings("ignore:WorkerPool resnapshot thrash")  # back-to-back compactions
def test_memo_entry_survives_one_compaction_not_two(mode):
    graph = _survival_graph()
    with QueryServer(graph, workers=1, dispatch_mode=mode) as server:
        request = QueryRequest(query=SURVIVAL_QUERY)
        _assert_serial_rows(server, server.handle(request))
        previous_base = graph.base_generation
        assert server.ingest(FAR_BATCH).ok
        graph.compact()  # the served view is now a base that folded the batch in
        assert graph.read_view().folded_weights == (previous_base, frozenset({5}))
        carried = server.handle(request)
        assert carried.stats.memo_hits == 1 and _carried(server) == 1
        _assert_serial_rows(server, carried)

        # A re-weight inside the result, folded in by the next compaction.
        assert server.ingest(IngestRequest(weights=((1, 4.0),))).ok
        graph.compact()
        heavier = server.handle(request)
        assert heavier.stats.memo_hits == 0 and _carried(server) == 1
        assert heavier.rows[0][0].weight == 5.0
        _assert_serial_rows(server, heavier)

        # Two compactions later the entry is past the two-delta horizon.
        for batch in range(2):
            assert server.ingest(IngestRequest(edges=((9, 10, "r", 1.0),), weights=((6, 2.0 + batch),))).ok
            graph.compact()
        recomputed = server.handle(request)
        assert recomputed.stats.memo_hits == 0 and _carried(server) == 1
        _assert_serial_rows(server, recomputed)


def test_memo_holds_one_entry_per_ctp_across_ingests():
    """One request repeated across six ingests leaves one memo entry, not
    one per generation (the far ones carried, the near ones recomputed)."""
    graph = _survival_graph()
    with QueryServer(graph, dispatch_mode="serial") as server:
        request = QueryRequest(query=SURVIVAL_QUERY)
        server.handle(request)
        for step in range(6):
            near = step % 2
            edge = (0, 2, "r", 1.0) if near else (6, 8, "r", 1.0)
            assert server.ingest(IngestRequest(edges=(edge,))).ok
            response = server.handle(request)
            assert response.stats.memo_hits == 1 - near
            _assert_serial_rows(server, response)
        assert len(server.context.ctp_cache) == 1
        assert _carried(server) == 3


def test_graph_fingerprint_tracks_generation():
    graph = _weighted_path_graph()
    before = SearchContext.graph_fingerprint(graph)
    graph.set_edge_weight(0, 9.0)
    after = SearchContext.graph_fingerprint(graph)
    assert before != after
    assert before[:2] == after[:2]  # same size — only the generation moved


# ----------------------------------------------------------------------
# 3. serving discipline: deadlines, admission, typed statuses
# ----------------------------------------------------------------------
def test_config_rejects_non_positive_deadline():
    with pytest.raises(ConfigError):
        SearchConfig(deadline=0.0)
    with pytest.raises(ConfigError):
        SearchConfig(deadline=-1.0)


def test_deadline_caps_per_ctp_timeout(fig1):
    # A generous CTP timeout must be capped to the query's deadline: the
    # effective budget can never exceed what the whole query was given.
    result = evaluate_query(
        fig1,
        MATRIX_QUERY,
        base_config=SearchConfig(deadline=5.0, timeout=3600.0),
    )
    assert len(result.rows) > 0  # fig1 finishes far inside 5s


def test_server_basic_roundtrip(fig1):
    serial = evaluate_query(fig1, MATRIX_QUERY)
    with QueryServer(fig1, workers=1, max_pending=4) as server:
        assert server.prewarm()
        first = server.handle(QueryRequest(query=MATRIX_QUERY, tag="t1"))
        second = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert first.status == STATUS_OK and first.tag == "t1"
        assert first.columns == serial.columns and first.rows == serial.rows
        assert first.stats.warm_pool  # prewarmed before traffic
        assert second.rows == serial.rows
        # Same query again: the shared context serves it from the memo.
        assert second.stats.memo_hits == second.stats.ctp_count
        counters = server.stats()
        assert counters["served"] == 2 and counters["rejected"] == 0


def test_server_memo_serves_repeated_deadline_bearing_request(fig1):
    """Regression: the memo key used to carry each CTP's deadline share —
    a wall-clock float — so under a deadline no request ever hit."""
    with QueryServer(fig1, dispatch_mode="serial", default_deadline=60.0) as server:
        first = server.handle(QueryRequest(query=MATRIX_QUERY))
        second = server.handle(QueryRequest(query=MATRIX_QUERY, deadline=30.0))
        assert first.status == second.status == STATUS_OK
        assert first.stats.memo_hits == 1  # the CONNECT repeated inside the query
        assert second.stats.memo_hits == second.stats.ctp_count == 3
        assert second.rows == first.rows


def test_server_rejects_at_capacity(fig1):
    with QueryServer(fig1, workers=1, max_pending=1) as server:
        # Deterministic: occupy the only slot directly, no timing races.
        assert server._slots.acquire(blocking=False)
        try:
            response = server.handle(QueryRequest(query=MATRIX_QUERY))
        finally:
            server._slots.release()
        assert response.status == STATUS_REJECTED
        assert "capacity" in response.error
        assert server.stats()["rejected"] == 1
        # Slot free again: the next request is served normally.
        assert server.handle(QueryRequest(query=MATRIX_QUERY)).status == STATUS_OK


def test_server_expires_spent_deadline(fig1):
    with QueryServer(fig1, workers=1) as server:
        response = server.handle(QueryRequest(query=MATRIX_QUERY, deadline=0))
        assert response.status == STATUS_EXPIRED
        assert response.rows == []
        assert server.stats()["expired"] == 1


def test_server_error_statuses(fig1):
    with QueryServer(fig1, workers=1) as server:
        bad_parse = server.handle(QueryRequest(query="SELECT nonsense"))
        bad_algo = server.handle(QueryRequest(query=MATRIX_QUERY, algorithm="nope"))
        bad_score = server.handle(QueryRequest(query=MATRIX_QUERY, score="nope"))
        assert {r.status for r in (bad_parse, bad_algo, bad_score)} == {STATUS_ERROR}
        assert server.stats()["errors"] == 3


def test_server_rejects_after_close(fig1):
    server = QueryServer(fig1, workers=1)
    server.close()
    response = server.handle(QueryRequest(query=MATRIX_QUERY))
    assert response.status == STATUS_REJECTED
    assert "closed" in response.error


def test_server_pagination(fig1):
    with QueryServer(fig1, workers=1) as server:
        full = server.handle(QueryRequest(query=MATRIX_QUERY))
        page = server.handle(QueryRequest(query=MATRIX_QUERY, limit=1, offset=1))
        assert page.total_rows == full.total_rows
        assert page.rows == full.rows[1:2]
        beyond = server.handle(QueryRequest(query=MATRIX_QUERY, offset=10_000))
        assert beyond.status == STATUS_OK and beyond.rows == []


def test_server_per_request_overrides(fig1):
    with QueryServer(fig1, workers=1) as server:
        default = server.handle(QueryRequest(query=MATRIX_QUERY))
        other_algo = server.handle(QueryRequest(query=MATRIX_QUERY, algorithm="bft"))
        assert default.status == STATUS_OK and other_algo.status == STATUS_OK
        assert default.rows == other_algo.rows  # algorithms agree on answers


def test_request_validation():
    with pytest.raises(ValidationError):
        QueryRequest(query="")
    with pytest.raises(ValidationError):
        QueryRequest(query=MATRIX_QUERY, offset=-1)
    with pytest.raises(ValidationError):
        QueryRequest(query=MATRIX_QUERY, limit=-5)


def test_response_to_dict_is_json_ready(fig1):
    import json

    with QueryServer(fig1, workers=1) as server:
        response = server.handle(QueryRequest(query=MATRIX_QUERY, tag="j"))
    payload = json.loads(json.dumps(response.to_dict()))
    assert payload["status"] == "ok" and payload["tag"] == "j"
    assert payload["total_rows"] == len(response.rows)
