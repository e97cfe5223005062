"""Worker-pool CTP dispatch: multi-core fan-out, same rows, same caches.

A query's CTPs run in the :class:`~repro.query.pool.WorkerPool` it is
given, otherwise inline.  Layers:

* **determinism matrix** — every algorithm × 1/2/4 pool workers produces
  exactly the serial rows (order included) on a multi-CTP query with a
  repeated CTP, and a complete 4-CTP fan-out does at every pool size —
  the acceptance gate for the process pool;
* **memo semantics** — the parent's cross-CTP memo serves and files in
  CTP order around the fan-out, so cache-hit provenance matches serial
  dispatch;
* **worker lifecycle** — the initializer loads the snapshot once per
  worker and every job reuses the worker-private graph/context;
* **fallbacks** — unpicklable configs degrade to inline dispatch
  instead of failing the query, over any context (only the parent
  touches it);
* **no pool, no processes** — without a pool every CTP runs inline at
  any ``parallelism``;
* **deadline-bounded fan-outs and the batch API** through a pool.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.results import validate_result
from repro.ctp.context import SearchContext
from repro.ctp.registry import ALGORITHMS
from repro.errors import StaleViewError
from repro.graph.datasets import figure1
from repro.graph.delta import EncodedDelta
from repro.graph.graph import Graph
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.query import parallel as parallel_mod
from repro.query.costmodel import DeadlineLedger
from repro.query.evaluator import evaluate_query
from repro.query.parallel import (
    CTPJob,
    _jobs_picklable,
    _process_worker_init,
    _process_worker_run,
    _worker_state_for,
    evaluate_queries,
    open_dispatch,
)
from repro.query.pool import WorkerPool
from repro.workloads.synthetic import grouped_star

MATRIX_QUERY = """
SELECT ?x ?w1 ?w2 ?w3 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "National Liberal Party") AS ?w2 MAX 2
  CONNECT(?x, "France") AS ?w3 MAX 3
}
"""

WILDCARD_QUERY = """
SELECT ?x ?w WHERE {
  CONNECT(?x, *) AS ?w MAX 2
  FILTER(type(?x) = "politician")
}
"""

WORKER_COUNTS = (1, 2, 4)

_serial_rows = {}


def _pooled(graph, query, workers=2, config=None, **kwargs):
    """``query`` with its CTPs in a ``workers``-process pool built for it."""
    config = config if config is not None else SearchConfig(parallelism=workers)
    with WorkerPool(graph, workers=workers) as pool:
        return evaluate_query(graph, query, base_config=config, pool=pool, **kwargs)


def _serial(fig1, algo: str):
    if algo not in _serial_rows:
        _serial_rows[algo] = evaluate_query(
            fig1,
            MATRIX_QUERY,
            algorithm=algo,
            base_config=SearchConfig(parallelism=1),
        )
    return _serial_rows[algo]


# ----------------------------------------------------------------------
# determinism matrix: rows identical to serial at every worker count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_process_rows_identical_to_serial(fig1, algo, workers):
    serial = _serial(fig1, algo)
    process = _pooled(fig1, MATRIX_QUERY, workers, algorithm=algo)
    assert process.columns == serial.columns
    assert process.rows == serial.rows
    assert [r.dispatch_mode for r in process.ctp_reports] == ["process", "process", "memo"]


def _fan_out_query(num_ctps: int) -> str:
    """``num_ctps`` CTPs sharing the g0 seed set, each connecting it to its
    own group of :func:`grouped_star` — joins on ``?a`` keep the final
    table linear, not a cross product."""
    filters = ['FILTER(type(?a) = "g0")']
    filters += [f'FILTER(type(?b{j}) = "g{j + 1}")' for j in range(num_ctps)]
    ctps = [f"CONNECT(?a, ?b{j}) AS ?w{j}" for j in range(num_ctps)]
    head = " ".join(["?a"] + [f"?w{j}" for j in range(num_ctps)])
    return f"SELECT {head} WHERE {{ {' '.join(filters + ctps)} }}"


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_complete_four_ctp_fan_out_rows_identical_at_every_pool_size(workers):
    """Four distinct CTPs searched to completion, one leader each."""
    star = grouped_star(5, 2, 3)
    query = _fan_out_query(4)
    serial = evaluate_query(star, query)
    process = _pooled(star, query, workers)
    assert serial.rows
    assert process.columns == serial.columns and process.rows == serial.rows
    assert [r.dispatch_mode for r in process.ctp_reports] == ["process"] * 4
    assert all(r.result_set.complete for r in process.ctp_reports)


def test_process_wildcard_query(fig1):
    serial = evaluate_query(fig1, WILDCARD_QUERY)
    process = _pooled(fig1, WILDCARD_QUERY)
    assert process.columns == serial.columns
    assert process.rows == serial.rows


def test_process_rows_identical_on_loaded_snapshot(fig1, tmp_path, monkeypatch):
    """Dispatch over a snapshot-loaded graph reuses its file — no re-save."""
    path = save_snapshot(fig1, tmp_path / "fig1.snapshot")
    loaded = load_snapshot(path)

    def boom(*args, **kwargs):  # pragma: no cover - only fires on regression
        raise AssertionError("dispatch re-serialized a graph that has a snapshot")

    monkeypatch.setattr("repro.graph.snapshot.save_snapshot", boom)
    serial = evaluate_query(loaded, MATRIX_QUERY)
    process = _pooled(loaded, MATRIX_QUERY)
    assert process.rows == serial.rows


# ----------------------------------------------------------------------
# memo semantics: parent-side serve/file in CTP order
# ----------------------------------------------------------------------
def test_cache_hit_provenance_matches_serial(fig1):
    serial = evaluate_query(fig1, MATRIX_QUERY)
    process = _pooled(fig1, MATRIX_QUERY, 4)
    # ?w3 repeats ?w1: the serial path serves it from the cross-CTP memo,
    # the process path shares the in-flight leader's result — both report
    # the same hit pattern.
    assert [r.cache_hit for r in serial.ctp_reports] == [False, False, True]
    assert [r.cache_hit for r in process.ctp_reports] == [False, False, True]
    # The third CTP repeats the first: no search runs for it, under
    # either dispatch — dispatch_mode says so instead of claiming a
    # worker ran it.
    assert [r.dispatch_mode for r in serial.ctp_reports] == ["serial", "serial", "memo"]
    assert [r.dispatch_mode for r in process.ctp_reports] == ["process", "process", "memo"]
    assert process.context_stats is not None
    assert process.context_stats["ctp_cache_hits"] >= 1


def test_explicit_context_memo_survives_process_dispatch(fig1):
    """A second query over the same explicit context is served from the
    memo the first (process-dispatched) query filed."""
    context = SearchContext(thread_safe=True)
    config = SearchConfig(parallelism=2)
    with WorkerPool(fig1, workers=2) as pool:
        first = evaluate_query(fig1, MATRIX_QUERY, base_config=config, context=context, pool=pool)
        second = evaluate_query(fig1, MATRIX_QUERY, base_config=config, context=context, pool=pool)
    assert second.rows == first.rows
    assert all(r.cache_hit for r in second.ctp_reports)
    assert [r.dispatch_mode for r in second.ctp_reports] == ["memo"] * 3


# ----------------------------------------------------------------------
# dispatch plumbing
# ----------------------------------------------------------------------
class TestStartMethod:
    def test_fork_only_when_single_threaded(self):
        import multiprocessing
        import threading

        from repro.query.parallel import _process_pool_context

        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods or "forkserver" not in methods:
            pytest.skip("platform lacks fork/forkserver")
        assert _process_pool_context().get_start_method() == "fork"
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, daemon=True)
        thread.start()
        try:
            # A threaded parent must never plain-fork (inherited-lock
            # deadlocks); the clean forkserver helper is used instead.
            assert _process_pool_context().get_start_method() == "forkserver"
        finally:
            stop.set()
            thread.join()

    def test_process_dispatch_from_threaded_parent(self, fig1):
        """End-to-end through the forkserver path: rows still identical."""
        import threading

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, daemon=True)
        thread.start()
        try:
            serial = _serial(fig1, "molesp")
            process = _pooled(fig1, MATRIX_QUERY)
            assert process.rows == serial.rows
            assert [r.dispatch_mode for r in process.ctp_reports] == ["process", "process", "memo"]
        finally:
            stop.set()
            thread.join()


class TestJobsPicklable:
    def test_plain_jobs_are_picklable(self):
        jobs = [CTPJob(index=0, seed_sets=[[1], [2], WILDCARD], config=SearchConfig())]
        assert _jobs_picklable("molesp", jobs)

    def test_lambda_score_is_not(self):
        config = SearchConfig(score=lambda g, e, n: 0.0)
        assert not _jobs_picklable("molesp", [CTPJob(index=0, seed_sets=[[1]], config=config)])

    def test_wildcard_identity_survives_pickling(self):
        seed_sets = pickle.loads(pickle.dumps([[1], WILDCARD]))
        assert seed_sets[1] is WILDCARD


class TestWorkerLifecycle:
    def test_initializer_loads_once_and_jobs_reuse_it(self, fig1, tmp_path, monkeypatch):
        """Drive the worker entry points in-process: one init, many runs."""
        path = save_snapshot(fig1, tmp_path / "fig1.snapshot")
        monkeypatch.setattr(parallel_mod, "_worker_graph", None)
        monkeypatch.setattr(parallel_mod, "_worker_context", None)
        _process_worker_init(str(path))
        graph = parallel_mod._worker_graph
        context = parallel_mod._worker_context
        assert graph is not None and graph.snapshot_path == str(path)
        seeds = [fig1.nodes_with_type("entrepreneur"), fig1.nodes_with_type("politician")]
        first, _ = _process_worker_run("molesp", seeds, SearchConfig(max_edges=3))
        second, _ = _process_worker_run("molesp", seeds, SearchConfig(max_edges=3))
        # Same worker graph/context across jobs: the private context binds
        # once and both runs adopt it.
        assert parallel_mod._worker_graph is graph
        assert parallel_mod._worker_context is context
        assert context.runs == 2 and context.rejects == 0
        assert [r.edges for r in first] == [r.edges for r in second]


def _twin_graph(compact_midway: bool) -> Graph:
    """A -r-> B based at generation 3, then +C and +D with an edge each:
    generation 7 either way, on base 3 or (compacted after C) base 5."""
    graph = Graph("twin")
    a, b = graph.add_node("A"), graph.add_node("B")
    graph.add_edge(a, b, "r")
    graph.ensure_base()
    c = graph.add_node("C")
    graph.add_edge(b, c, "r")
    if compact_midway:
        graph.compact()
    graph.add_edge(c, graph.add_node("D"), "r")
    return graph


class TestWorkerDeltaDecode:
    """A worker decodes a delta only when it holds another generation: a
    job whose key matches the overlay it holds never reaches ``pickle.loads``."""

    @pytest.fixture(autouse=True)
    def _fresh_worker(self, monkeypatch):
        for name in (
            "_worker_graph", "_worker_base", "_worker_context",
            "_worker_overlay", "_worker_overlay_key", "_worker_overlay_context",
        ):
            monkeypatch.setattr(parallel_mod, name, None)

    @staticmethod
    def _map_base(graph: Graph, tmp_path, name: str):
        path = str(save_snapshot(graph.ensure_base(), tmp_path / f"{name}.snapshot"))
        base = (path, graph.base_generation)
        _process_worker_init(*base)
        return base

    def test_same_key_reuses_the_overlay_without_decoding(self, tmp_path):
        graph = _twin_graph(compact_midway=False)
        base = self._map_base(graph, tmp_path, "twin")
        job = graph.delta_since_base().encode()
        overlay, context = _worker_state_for(job, base)
        assert overlay.generation == graph.generation
        # Same key, bytes that cannot be unpickled: the held overlay answers.
        again = _worker_state_for(EncodedDelta(job.key, b"not a pickle"), base)
        assert again == (overlay, context)

    def test_a_new_generation_is_decoded(self, tmp_path):
        graph = _twin_graph(compact_midway=False)
        base = self._map_base(graph, tmp_path, "twin")
        first, first_context = _worker_state_for(graph.delta_since_base().encode(), base)
        graph.add_node("E")
        second, second_context = _worker_state_for(graph.delta_since_base().encode(), base)
        assert second is not first and second_context is not first_context
        assert second.generation == graph.generation == first.generation + 1
        assert second.num_nodes == first.num_nodes + 1

    def test_equal_generation_on_a_compacted_base_is_not_the_old_overlay(self, tmp_path):
        plain, compacted = _twin_graph(compact_midway=False), _twin_graph(compact_midway=True)
        assert plain.generation == compacted.generation
        assert plain.base_generation != compacted.base_generation
        plain_base = self._map_base(plain, tmp_path, "plain")
        old, _ = _worker_state_for(plain.delta_since_base().encode(), plain_base)
        job = compacted.delta_since_base().encode()
        # The key names the base generation too: while the worker still maps
        # the old base the delta is decoded and refused, never served by
        # the overlay held for the same generation number...
        with pytest.raises(StaleViewError):
            _worker_state_for(job, plain_base)
        # ...and once the job names its own base, the overlay is built on it.
        path = str(save_snapshot(compacted.ensure_base(), tmp_path / "compacted.snapshot"))
        new, _ = _worker_state_for(job, (path, compacted.base_generation))
        assert new is not old
        assert new.base_generation == compacted.base_generation != old.base_generation
        assert new.num_edges == old.num_edges and new.generation == old.generation


# ----------------------------------------------------------------------
# fallbacks: degrade, never fail
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_unpicklable_score_falls_back_and_matches(self, fig1):
        score = lambda graph, edges, nodes: -len(edges)  # noqa: E731
        serial = evaluate_query(
            fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=1, score=score)
        )
        process = _pooled(fig1, MATRIX_QUERY, config=SearchConfig(parallelism=2, score=score))
        assert process.rows == serial.rows
        # The degradation is silent for the query but observable in the
        # reports: the jobs actually ran inline, and the hop is stamped.
        assert [r.dispatch_mode for r in process.ctp_reports] == [
            "process->serial",
            "process->serial",
            "memo",
        ]
        assert process.resilience.degraded_to == "serial"

    def test_unpicklable_with_non_thread_safe_context_runs_serial(self, fig1):
        """Jobs that cannot cross a process boundary, with an explicit
        context that is not thread-safe: the dispatch degrades to the
        serial loop over that context, still correct."""
        score = lambda graph, edges, nodes: -len(edges)  # noqa: E731
        context = SearchContext()  # not thread-safe
        serial = evaluate_query(
            fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=1, score=score)
        )
        process = _pooled(
            fig1, MATRIX_QUERY, config=SearchConfig(parallelism=4, score=score), context=context
        )
        assert process.rows == serial.rows
        assert context.runs > 0  # the serial loop really used the context
        assert [r.dispatch_mode for r in process.ctp_reports] == [
            "process->serial",
            "process->serial",
            "memo",
        ]
        assert process.resilience.degraded_to == "serial"

    def test_open_dispatch_direct_through_a_pool(self, fig1):
        """The dispatch API itself, without the evaluator on top."""
        seeds = [fig1.nodes_with_type("entrepreneur"), fig1.nodes_with_type("politician")]
        config = SearchConfig(max_edges=3)
        jobs = [CTPJob(index=i, seed_sets=seeds, config=config) for i in range(3)]
        serial = open_dispatch(fig1, "molesp", None, len(jobs), DeadlineLedger()).run(jobs)
        with WorkerPool(fig1, workers=2) as pool:
            process = open_dispatch(
                fig1, "molesp", None, len(jobs), DeadlineLedger(), pool=pool
            ).run(jobs)
        assert len(process) == 3
        assert [o.mode for o in process] == ["process"] * 3
        for a, b in zip(serial, process):
            assert [r.edges for r in a.result_set] == [r.edges for r in b.result_set]


# ----------------------------------------------------------------------
# no pool: every CTP runs inline, whatever the parallelism
# ----------------------------------------------------------------------
def test_no_pool_means_no_processes(fig1):
    import multiprocessing

    serial = _serial(fig1, "molesp")
    result = evaluate_query(fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=4))
    assert multiprocessing.active_children() == []
    assert [r.dispatch_mode for r in result.ctp_reports] == ["serial", "serial", "memo"]
    assert result.rows == serial.rows
    assert result.resilience is None
    # The same query handed a two-worker pool runs in it, same rows.
    pooled = _pooled(fig1, MATRIX_QUERY, config=SearchConfig(parallelism=4))
    assert [r.dispatch_mode for r in pooled.ctp_reports] == ["process", "process", "memo"]
    assert pooled.rows == serial.rows


# ----------------------------------------------------------------------
# deadline-bounded CTPs and the batch API through a pool
# ----------------------------------------------------------------------
def test_timed_out_ctps_complete_under_process_mode(fig1):
    """Timeout truncation is wall-clock-dependent, so rows are not asserted
    — but the dispatch must complete, flag the truncation, and not file
    non-replayable sets into the memo."""
    result = _pooled(fig1, MATRIX_QUERY, config=SearchConfig(parallelism=2, timeout=1e-9))
    assert len(result.ctp_reports) == 3
    assert all(r.result_set.timed_out for r in result.ctp_reports)
    assert not any(r.cache_hit for r in result.ctp_reports)
    assert result.context_stats["ctp_cache_hits"] == 0


def _typed_expander(num_groups: int, nodes_per_group: int, spokes: int, extra_edges: int) -> Graph:
    """Typed seed groups hanging off a shared core ring through ``spokes``
    attachment points plus modular chords: connection search between two
    groups has combinatorially many minimal trees, enough that an
    unbounded enumeration blows any small per-CTP timeout.  No RNG."""
    graph = Graph(f"typed-expander({num_groups}x{nodes_per_group})")
    core = [graph.add_node(f"c{i}") for i in range(num_groups * spokes)]
    for i, node in enumerate(core):
        graph.add_edge(node, core[(i + 1) % len(core)], "ring")
    for step in range(2, 2 + extra_edges):
        for i in range(0, len(core), step):
            graph.add_edge(core[i], core[(i + step * step) % len(core)], f"chord{step}")
    for group in range(num_groups):
        for j in range(nodes_per_group):
            member = graph.add_node(f"g{group}_{j}", types=(f"g{group}",))
            for s in range(spokes):
                anchor = core[(group * spokes + s * (j + 1)) % len(core)]
                graph.add_edge(anchor, member, "attach")
    return graph


def test_four_ctp_timeout_fan_out_through_a_pool():
    """Four distinct CTPs that each exhaust their per-CTP TIMEOUT on two
    workers: every one returns a flagged partial set of valid trees."""
    graph = _typed_expander(num_groups=8, nodes_per_group=2, spokes=3, extra_edges=3)
    ctps = " ".join(
        f'FILTER(type(?a{j}) = "g{2 * j}") FILTER(type(?b{j}) = "g{2 * j + 1}") '
        f"CONNECT(?a{j}, ?b{j}) AS ?w{j} SCORE size TOP 2"
        for j in range(4)
    )
    query = f"SELECT ?w0 ?w1 ?w2 ?w3 WHERE {{ {ctps} }}"
    result = _pooled(graph, query, default_timeout=0.05)
    assert [r.dispatch_mode for r in result.ctp_reports] == ["process"] * 4
    assert all(r.result_set.timed_out for r in result.ctp_reports)
    for j, report in enumerate(result.ctp_reports):
        seed_sets = [graph.nodes_with_type(f"g{2 * j}"), graph.nodes_with_type(f"g{2 * j + 1}")]
        for tree in report.result_set:
            assert validate_result(graph, tree, seed_sets) == []


def test_evaluate_queries_batch_process_mode(fig1):
    queries = [MATRIX_QUERY, WILDCARD_QUERY, MATRIX_QUERY]
    per_query = [evaluate_query(fig1, q) for q in queries]
    inline = evaluate_queries(fig1, queries)
    with WorkerPool(fig1, workers=2) as pool:
        batch = evaluate_queries(fig1, queries, base_config=SearchConfig(parallelism=2), pool=pool)
    assert len(batch) == 3
    for expected, got in zip(per_query, batch):
        assert got.columns == expected.columns
        assert got.rows == expected.rows
    # The repeated query is served from the shared context's memo, with
    # the hits of the inline batch.
    assert all(r.cache_hit for r in batch[2].ctp_reports)
    assert [[r.cache_hit for r in result.ctp_reports] for result in batch] == [
        [r.cache_hit for r in result.ctp_reports] for result in inline
    ]
    assert batch.context_stats()["ctp_cache_hits"] == inline.context_stats()["ctp_cache_hits"]
