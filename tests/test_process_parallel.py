"""Process-pool CTP dispatch: multi-core fan-out, same rows, same caches.

Layers:

* **determinism matrix** — every algorithm × 1/2/4 workers under
  ``parallelism_mode="process"`` produces exactly the serial rows (order
  included) on a multi-CTP query with a repeated CTP, interning on and
  off — the acceptance gate for the process pool;
* **memo semantics** — the parent's cross-CTP memo serves and files in
  CTP order around the fan-out, so cache-hit provenance matches serial
  dispatch;
* **worker lifecycle** — the initializer loads the snapshot once per
  worker and every job reuses the worker-private graph/context;
* **fallbacks** — unpicklable configs degrade to thread (or serial)
  dispatch instead of failing the query, and a non-thread-safe context
  does *not* downgrade process dispatch (only the parent touches it);
* **per-call dispatch is the pooled path** — without an injected pool a
  process query runs on a ``WorkerPool`` that lives for the call: same
  stamps, a ``ResilienceReport``, no worker or second snapshot file left
  behind;
* **batch API** — ``evaluate_queries`` under process mode.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.registry import ALGORITHMS
from repro.graph.datasets import figure1
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.query import parallel as parallel_mod
from repro.query.evaluator import evaluate_query
from repro.query.parallel import (
    CTPJob,
    _jobs_picklable,
    _process_worker_init,
    _process_worker_run,
    effective_parallelism,
    evaluate_queries,
    run_ctp_jobs,
)

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
    process = evaluate_query(
        fig1,
        MATRIX_QUERY,
        algorithm=algo,
        base_config=SearchConfig(parallelism=workers, parallelism_mode="process"),
    )
    assert process.columns == serial.columns
    assert process.rows == serial.rows


def test_process_wildcard_query(fig1):
    serial = evaluate_query(fig1, WILDCARD_QUERY)
    process = evaluate_query(
        fig1,
        WILDCARD_QUERY,
        base_config=SearchConfig(parallelism=2, parallelism_mode="process"),
    )
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
    process = evaluate_query(
        loaded,
        MATRIX_QUERY,
        base_config=SearchConfig(parallelism=2, parallelism_mode="process"),
    )
    assert process.rows == serial.rows


# ----------------------------------------------------------------------
# memo semantics: parent-side serve/file in CTP order
# ----------------------------------------------------------------------
def test_cache_hit_provenance_matches_serial(fig1):
    serial = evaluate_query(fig1, MATRIX_QUERY)
    process = evaluate_query(
        fig1,
        MATRIX_QUERY,
        base_config=SearchConfig(parallelism=4, parallelism_mode="process"),
    )
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
    config = SearchConfig(parallelism=2, parallelism_mode="process")
    first = evaluate_query(fig1, MATRIX_QUERY, base_config=config, context=context)
    second = evaluate_query(fig1, MATRIX_QUERY, base_config=config, context=context)
    assert second.rows == first.rows
    assert all(r.cache_hit for r in second.ctp_reports)
    assert [r.dispatch_mode for r in second.ctp_reports] == ["memo"] * 3


# ----------------------------------------------------------------------
# dispatch plumbing
# ----------------------------------------------------------------------
class TestEffectiveParallelism:
    def test_process_mode_ignores_context_thread_safety(self):
        # Only the parent thread touches the context under process mode.
        assert effective_parallelism(4, 3, SearchContext(), mode="process") == 3
        assert effective_parallelism(4, 3, SearchContext(), mode="thread") == 1

    def test_collapses_to_serial_like_thread_mode(self):
        assert effective_parallelism(8, 1, None, mode="process") == 1
        assert effective_parallelism(1, 8, None, mode="process") == 1


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
            process = evaluate_query(
                fig1,
                MATRIX_QUERY,
                base_config=SearchConfig(parallelism=2, parallelism_mode="process"),
            )
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


# ----------------------------------------------------------------------
# fallbacks: degrade, never fail
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_unpicklable_score_falls_back_and_matches(self, fig1):
        score = lambda graph, edges, nodes: -len(edges)  # noqa: E731
        serial = evaluate_query(
            fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=1, score=score)
        )
        process = evaluate_query(
            fig1,
            MATRIX_QUERY,
            base_config=SearchConfig(
                parallelism=2, parallelism_mode="process", score=score
            ),
        )
        assert process.rows == serial.rows
        # The degradation is silent for the query but observable in the
        # reports: the jobs actually ran on the thread pool, and the hop is
        # stamped — a per-call dispatch takes the pooled path's policy.
        assert [r.dispatch_mode for r in process.ctp_reports] == [
            "process->thread",
            "process->thread",
            "memo",
        ]
        assert process.resilience.degraded_to == "thread"

    def test_unpicklable_with_non_thread_safe_context_runs_serial(self, fig1):
        """Worst case — jobs cannot cross a process boundary AND the
        explicit context cannot be shared across threads: the dispatch
        must degrade all the way to the serial loop, still correct."""
        score = lambda graph, edges, nodes: -len(edges)  # noqa: E731
        context = SearchContext()  # not thread-safe
        serial = evaluate_query(
            fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=1, score=score)
        )
        process = evaluate_query(
            fig1,
            MATRIX_QUERY,
            base_config=SearchConfig(parallelism=4, parallelism_mode="process", score=score),
            context=context,
        )
        assert process.rows == serial.rows
        assert context.runs > 0  # the serial loop really used the context
        assert [r.dispatch_mode for r in process.ctp_reports] == [
            "process->serial",
            "process->serial",
            "memo",
        ]
        assert process.resilience.degraded_to == "serial"

    def test_run_ctp_jobs_direct_process_mode(self, fig1):
        """The dispatch API itself, without the evaluator on top."""
        seeds = [fig1.nodes_with_type("entrepreneur"), fig1.nodes_with_type("politician")]
        config = SearchConfig(max_edges=3)
        jobs = [CTPJob(index=i, seed_sets=seeds, config=config) for i in range(3)]
        serial = run_ctp_jobs(fig1, "molesp", jobs, None, parallelism=1)
        process = run_ctp_jobs(fig1, "molesp", jobs, None, parallelism=2, mode="process")
        assert len(process) == 3
        for a, b in zip(serial, process):
            assert [r.edges for r in a.result_set] == [r.edges for r in b.result_set]


# ----------------------------------------------------------------------
# per-call process dispatch is the pooled path on a call-scoped pool
# ----------------------------------------------------------------------
def test_per_call_process_dispatch_is_the_pooled_path(fig1):
    import multiprocessing

    from repro.graph import snapshot as snapshot_mod

    config = SearchConfig(parallelism=2, parallelism_mode="process")
    files_before = set(snapshot_mod._AUTO_SNAPSHOTS)
    first = evaluate_query(fig1, MATRIX_QUERY, base_config=config)
    files_after_first = set(snapshot_mod._AUTO_SNAPSHOTS) - files_before
    second = evaluate_query(fig1, MATRIX_QUERY, base_config=config)
    for result in (first, second):
        assert result.rows == _serial(fig1, "molesp").rows
        assert [r.dispatch_mode for r in result.ctp_reports] == ["process", "process", "memo"]
        # The pooled path's telemetry, not the old bare fork.
        assert result.resilience is not None
        assert result.resilience.degraded_to is None and result.resilience.retries == 0
    # The call-scoped pool is gone (no live workers) but the snapshot it
    # mapped stays memoized on the graph: the second call wrote no file.
    assert not [p for p in multiprocessing.active_children() if p.is_alive()]
    assert len(files_after_first) <= 1
    assert set(snapshot_mod._AUTO_SNAPSHOTS) - files_before == files_after_first
    assert all(os.path.exists(path) for path in files_after_first)


# ----------------------------------------------------------------------
# deadline-bounded CTPs and the batch API under process mode
# ----------------------------------------------------------------------
def test_timed_out_ctps_complete_under_process_mode(fig1):
    """Timeout truncation is wall-clock-dependent, so rows are not asserted
    — but the dispatch must complete, flag the truncation, and not file
    non-replayable sets into the memo."""
    result = evaluate_query(
        fig1,
        MATRIX_QUERY,
        base_config=SearchConfig(parallelism=2, parallelism_mode="process", timeout=1e-9),
    )
    assert len(result.ctp_reports) == 3
    assert all(r.result_set.timed_out for r in result.ctp_reports)
    assert not any(r.cache_hit for r in result.ctp_reports)
    assert result.context_stats["ctp_cache_hits"] == 0


def test_evaluate_queries_batch_process_mode(fig1):
    queries = [MATRIX_QUERY, WILDCARD_QUERY, MATRIX_QUERY]
    per_query = [evaluate_query(fig1, q) for q in queries]
    batch = evaluate_queries(
        fig1,
        queries,
        base_config=SearchConfig(parallelism=2, parallelism_mode="process"),
    )
    assert len(batch) == 3
    for expected, got in zip(per_query, batch):
        assert got.columns == expected.columns
        assert got.rows == expected.rows
    # The repeated query is served from the shared context's memo.
    assert all(r.cache_hit for r in batch[2].ctp_reports)
