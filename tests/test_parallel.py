"""Parallel CTP dispatch: concurrency is wall-clock only, never semantics.

A pool that gives up runs its CTPs inline, on the calling thread; the
fallback cases here reach that path through
:func:`repro.testing.fallback_pool` (a pool that cannot be prepared:
process -> serial, no worker spawned).  Five layers:

* **determinism matrix** — every algorithm × a pool fallback asked for
  2/4/8 workers (the ids predate the inline fallback, under which the
  count changes nothing) produces *exactly* the serial rows (same order,
  same trees) on a multi-CTP query with a repeated CTP (exercising
  in-flight dedup);
* **sharded-pool safety** — a Hypothesis property that concurrent
  interning from several threads never hands out two handles for one edge
  set, plus internal-consistency checks (fingerprints, sizes, bijection);
* **ResultCache** — count-bounded LRU eviction order pinned, serially
  and after a contention phase on the locked variant;
* **stats merging** — :meth:`SearchStats.merge`/``merged`` fold counters
  deterministically in the order given;
* **batch API** — ``evaluate_queries``: cross-query memo hits, empty
  batch, single query, growth invalidation via the fingerprint guard.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctp.config import SearchConfig
from repro.ctp.context import ResultCache, SearchContext
from repro.ctp.interning import EdgeSetPool, splitmix64
from repro.ctp.registry import ALGORITHMS, evaluate_ctp
from repro.ctp.stats import SearchStats
from repro.graph.graph import Graph
from repro.query.evaluator import evaluate_query
from repro.query.costmodel import DeadlineLedger
from repro.query.parallel import CTPJob, evaluate_queries, open_dispatch
from repro.testing import fallback_pool

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

WORKER_COUNTS = (2, 4, 8)


def assert_pool_consistent(pool: EdgeSetPool) -> None:
    """Pool invariants: records match their metadata, interning is exact."""
    seen = {}
    for handle, (edges, fingerprint, size) in enumerate(pool._recs):
        assert len(edges) == size
        expected = 0
        for edge_id in edges:
            expected ^= splitmix64(edge_id)
        assert fingerprint == expected, f"handle {handle}: stale fingerprint"
        assert edges not in seen, f"set {set(edges)} interned twice: {seen[edges]}, {handle}"
        seen[edges] = handle


# ----------------------------------------------------------------------
# determinism matrix: rows identical to serial at every worker count
# ----------------------------------------------------------------------
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


def _fallback(graph, query, workers=4, **kwargs):
    """``query`` through a ``workers``-worker pool that gives up (see the
    module docstring)."""
    with fallback_pool(graph, workers) as pool:
        return evaluate_query(
            graph, query, base_config=SearchConfig(parallelism=workers), pool=pool, **kwargs
        )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_parallel_rows_identical_to_serial(fig1, algo, workers):
    serial = _serial(fig1, algo)
    parallel = _fallback(fig1, MATRIX_QUERY, workers, algorithm=algo)
    assert [r.dispatch_mode for r in parallel.ctp_reports] == ["process->serial"] * 2 + ["memo"]
    assert parallel.columns == serial.columns
    assert parallel.rows == serial.rows  # bit-identical, order included
    for par_report, ser_report in zip(parallel.ctp_reports, serial.ctp_reports):
        assert par_report.seed_set_sizes == ser_report.seed_set_sizes
        assert [r.edges for r in par_report.result_set] == [
            r.edges for r in ser_report.result_set
        ]
        assert [r.weight for r in par_report.result_set] == [
            r.weight for r in ser_report.result_set
        ]


def test_parallel_duplicate_ctp_in_flight_dedup(fig1):
    """The repeated CONNECT is evaluated once; the duplicate shares it."""
    result = _fallback(fig1, MATRIX_QUERY)
    first, _, third = result.ctp_reports
    assert not first.cache_hit
    assert third.cache_hit  # the ?w3 duplicate of ?w1
    assert third.result_set is first.result_set
    assert result.context_stats["runs"] == 2  # only two distinct searches


def test_parallel_truncated_duplicates_rerun(fig1):
    """LIMIT-truncated runs are never shared between duplicates (the memo
    rule): the follower re-runs, exactly as the serial path re-searches."""
    query = MATRIX_QUERY.replace("AS ?w1 MAX 3", "AS ?w1 MAX 3 LIMIT 1").replace(
        "AS ?w3 MAX 3", "AS ?w3 MAX 3 LIMIT 1"
    )
    serial = evaluate_query(fig1, query)
    parallel = _fallback(fig1, query)
    assert parallel.rows == serial.rows
    assert [r.cache_hit for r in parallel.ctp_reports] == [False, False, False]
    assert parallel.context_stats["runs"] == 3  # the duplicate searched again
    assert parallel.context_stats["ctp_cache_hits"] == 0


def test_parallel_wildcard_query(fig1):
    serial = evaluate_query(fig1, WILDCARD_QUERY)
    parallel = _fallback(fig1, WILDCARD_QUERY)
    assert parallel.rows == serial.rows


def test_parallel_without_shared_context(fig1, fig1_seeds):
    """The pool fallback composes with context-less jobs (a private pool
    per run, nothing memoized): same result sets as the inline executor."""
    jobs = [
        CTPJob(index, list(seeds), SearchConfig(max_edges=4))
        for index, seeds in enumerate((fig1_seeds, fig1_seeds[:2], fig1_seeds))
    ]
    serial = open_dispatch(fig1, "molesp", None, len(jobs), DeadlineLedger()).run(jobs)
    with fallback_pool(fig1, 4) as pool:
        parallel = open_dispatch(
            fig1, "molesp", None, len(jobs), DeadlineLedger(), pool=pool
        ).run(jobs)
    assert [[r.edges for r in o.result_set] for o in parallel] == [
        [r.edges for r in o.result_set] for o in serial
    ]
    assert [o.cache_hit for o in parallel] == [False, False, False]
    assert [o.mode for o in serial] == ["serial"] * 3
    assert [o.mode for o in parallel] == ["process->serial"] * 3


def test_parallel_csr_backend(fig1):
    frozen = fig1.freeze()
    serial = evaluate_query(frozen, MATRIX_QUERY)
    parallel = _fallback(frozen, MATRIX_QUERY)
    assert parallel.rows == serial.rows
    # One snapshot is adopted by every worker: no rejects.
    assert parallel.context_stats["rejects"] == 0


def test_explicit_thread_safe_context_amortizes(fig1):
    context = SearchContext(thread_safe=True)
    first = _fallback(fig1, MATRIX_QUERY, context=context)
    second = _fallback(fig1, MATRIX_QUERY, context=context)
    assert first.rows == second.rows
    assert all(report.cache_hit for report in second.ctp_reports)


def test_explicit_unsafe_context_downgrades_to_serial(fig1):
    """A non-thread-safe context is only ever touched by the calling thread."""
    context = SearchContext()
    serial = evaluate_query(fig1, MATRIX_QUERY)
    result = _fallback(fig1, MATRIX_QUERY, workers=8, context=context)
    assert result.rows == serial.rows
    assert context.runs == 2  # serial dispatch: dup was a memo hit
    assert [r.dispatch_mode for r in result.ctp_reports] == ["process->serial"] * 2 + ["memo"]


def test_degraded_dispatch_runs_every_search_on_the_calling_thread(fig1, monkeypatch):
    """A pool that gives up runs its jobs inline: every search runs on the
    caller's thread, and no dispatch thread is ever started."""
    seen = []

    class Recording:
        def run(self, graph, seed_sets, config, context=None):
            seen.append((threading.current_thread(), [t.name for t in threading.enumerate()]))
            return evaluate_ctp(graph, seed_sets, "molesp", config, context=context)

    monkeypatch.setattr("repro.query.parallel.get_algorithm", lambda name: Recording())
    result = _fallback(fig1, MATRIX_QUERY, workers=4)
    assert len(seen) == 2
    assert all(thread is threading.current_thread() for thread, _ in seen)
    assert not any(name.startswith("repro-ctp") for _, names in seen for name in names)
    assert [r.dispatch_mode for r in result.ctp_reports] == ["process->serial"] * 2 + ["memo"]


class TestEffectiveParallelism:
    """The ``parallelism`` knob: validated, and never part of a memo key."""

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(parallelism=0)

    def test_fingerprint_ignores_parallelism(self):
        fingerprint = SearchContext.config_fingerprint
        assert fingerprint(SearchConfig(parallelism=8)) == fingerprint(SearchConfig())


# ----------------------------------------------------------------------
# sharded pool: concurrent interning safety
# ----------------------------------------------------------------------
class TestShardedPoolSerial:
    """The thread-safe pool is a drop-in EdgeSetPool in a single thread."""

    def test_same_handles_for_same_construction_paths(self):
        pool = EdgeSetPool(thread_safe=True)
        assert pool.EMPTY == 0 and not pool.EMPTY
        h_abc = pool.intern([1, 2, 3])
        assert pool.union1(pool.intern([1, 2]), 3) == h_abc
        assert pool.union2(pool.intern([1]), pool.intern([2, 3])) == h_abc
        assert pool.union2(pool.intern([1, 2]), pool.intern([2, 3])) == h_abc  # overlap
        assert pool.edges(h_abc) == frozenset({1, 2, 3})
        assert pool.size(h_abc) == 3
        assert_pool_consistent(pool)

    def test_matches_plain_pool_semantics(self):
        plain, sharded = EdgeSetPool(), EdgeSetPool(thread_safe=True)
        sets = [frozenset(range(i, i + 4)) for i in range(12)] + [frozenset()]
        for pool in (plain, sharded):
            handles = {s: pool.intern(s) for s in sets}
            for s, handle in handles.items():
                assert pool.edges(handle) == s
            assert pool.union2(handles[sets[0]], handles[sets[1]]) == pool.intern(
                sets[0] | sets[1]
            )
        assert len(plain) == len(sharded)


def _hammer_pool(pool, edge_sets, num_threads=4):
    """Interleave intern/union1/union2 from several threads; return the
    (frozenset -> handle) observations of every thread."""
    barrier = threading.Barrier(num_threads)
    observations = [[] for _ in range(num_threads)]
    errors = []

    def worker(tid):
        try:
            barrier.wait()
            out = observations[tid]
            for s in edge_sets:
                out.append((s, pool.intern(s)))
                if s:
                    pivot = max(s)
                    grown = pool.union1(pool.intern(s - {pivot}), pivot)
                    out.append((s, grown))
            for s1 in edge_sets[:8]:
                for s2 in edge_sets[:8]:
                    merged = pool.union2(pool.intern(s1), pool.intern(s2))
                    out.append((s1 | s2, merged))
        except Exception as error:  # pragma: no cover - only on real races
            errors.append(error)

    _run_interleaved([threading.Thread(target=worker, args=(tid,)) for tid in range(num_threads)])
    assert not errors, errors
    return observations


def _run_interleaved(threads):
    """Start and join ``threads`` under a 10 us switch interval, so they
    interleave inside the pool's probe and insert paths."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 40), max_size=8),
        min_size=1,
        max_size=16,
    )
)
def test_concurrent_interning_never_splits_a_set(edge_sets):
    """Shard-consistency invariant: one edge set, one handle — across all
    threads and all construction paths (intern, Grow, Merge)."""
    pool = EdgeSetPool(thread_safe=True)
    observations = _hammer_pool(pool, edge_sets)
    mapping = {}
    for thread_observations in observations:
        for edge_set, handle in thread_observations:
            assert mapping.setdefault(edge_set, handle) == handle, (
                f"set {set(edge_set)} received handles {mapping[edge_set]} and {handle}"
            )
    assert_pool_consistent(pool)


def test_lock_free_hits_race_index_growth():
    """Every union of already-interned sets is a lock-free index probe, so
    it runs *while* a writer inserts into and regrows the index: readers
    must only ever see the canonical handle."""
    pool = EdgeSetPool(thread_safe=True)
    singles = [pool.intern([edge_id]) for edge_id in range(8)]
    pairs = {(i, j): pool.intern([i, j]) for i in range(8) for j in range(i + 1, 8)}
    held = len(pool)
    capacity = pool._index.mask + 1
    fresh = 4 * capacity  # fills the initial index four times over
    done = threading.Event()
    wrong, written, errors = [], [], []

    def reader():
        try:
            while not done.is_set():
                for (i, j), handle in pairs.items():
                    grown = pool.union1(singles[i], j)
                    merged = pool.union2(singles[j], singles[i])
                    if not grown == merged == pool.intern([j, i]) == handle:
                        wrong.append((i, j, grown, merged, handle))
        except Exception as error:  # pragma: no cover - only on real races
            errors.append(error)

    def writer():
        try:
            for n in range(fresh):
                written.append(pool.union1(singles[n % 8], 1000 + n))
        except Exception as error:  # pragma: no cover - only on real races
            errors.append(error)
        finally:
            done.set()

    _run_interleaved([threading.Thread(target=reader) for _ in range(4)] + [threading.Thread(target=writer)])
    assert not errors, errors
    assert not wrong, wrong[:5]
    assert (pool._index.mask + 1) >= 8 * capacity  # >= 3 growths under the readers
    assert sorted(written) == list(range(held, held + fresh))  # no handle allocated twice
    assert_pool_consistent(pool)


def test_stress_shared_context_from_eight_threads(fig1, fig1_seeds):
    """Hammer one thread-safe context with concurrent engine runs."""
    context = SearchContext(thread_safe=True)
    config = SearchConfig()
    baseline = evaluate_ctp(fig1, fig1_seeds, "molesp", config=config)
    pair_baseline = evaluate_ctp(fig1, fig1_seeds[:2], "molesp", config=config)
    num_threads, iterations = 8, 4
    barrier = threading.Barrier(num_threads)
    failures = []

    def worker(tid):
        try:
            barrier.wait()
            for i in range(iterations):
                seeds = fig1_seeds if (tid + i) % 2 == 0 else fig1_seeds[:2]
                expected = baseline if (tid + i) % 2 == 0 else pair_baseline
                result = evaluate_ctp(fig1, seeds, "molesp", config=config, context=context)
                if [r.edges for r in result] != [r.edges for r in expected]:
                    failures.append(f"thread {tid} iteration {i}: rows diverged")
                if [r.seeds for r in result] != [r.seeds for r in expected]:
                    failures.append(f"thread {tid} iteration {i}: seeds diverged")
        except Exception as error:
            failures.append(f"thread {tid}: {error!r}")

    threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures
    assert context.runs == num_threads * iterations
    assert context.rejects == 0
    assert_pool_consistent(context.pool)


# ----------------------------------------------------------------------
# ResultCache: an LRU bounded by entry count
# ----------------------------------------------------------------------
class TestSizeAwareResultCache:
    def test_hit_refresh_changes_eviction_victim(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", tuple(range(32)))
        cache.put("b", tuple(range(32, 64)))
        cache.get("a")  # refresh: "b" is now least recently used
        cache.put("c", tuple(range(64, 96)))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.evictions == 1

    def test_entry_bound_still_enforced_without_bytes(self):
        cache = ResultCache(maxsize=2)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        assert len(cache) == 2
        cache.put("b", "replaced")  # replacing an entry evicts nothing
        assert len(cache) == 2 and cache.get("b") == "replaced"

    def test_eviction_order_pinned_after_contention(self):
        """A contention phase must not corrupt the LRU bookkeeping: the
        eviction order afterwards is exactly the serial LRU order."""
        cache = ResultCache(maxsize=3, thread_safe=True)
        barrier = threading.Barrier(8)

        def worker(tid):
            barrier.wait()
            for i in range(50):
                cache.put((tid, i % 5), tuple(range(16)))
                cache.get((tid, (i + 1) % 5))

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The bound and the counters survived the contention intact.
        assert len(cache) == 3
        assert cache.hits + cache.misses == 8 * 50
        assert 8 * 5 - 3 <= cache.evictions <= 8 * 50 - 3  # 40 distinct keys, 400 puts
        # Now pin the order serially: x, y, z fill it; refresh x; w evicts y.
        for key in ("x", "y", "z"):
            cache.put(key, tuple(range(16)))
        cache.get("x")
        cache.put("w", tuple(range(16)))
        assert "x" in cache and "z" in cache and "w" in cache and "y" not in cache


# ----------------------------------------------------------------------
# stats merging
# ----------------------------------------------------------------------
class TestStatsMerge:
    def test_merge_sums_every_field(self):
        a = SearchStats(grows=3, merges=1, results_found=2, elapsed_seconds=0.5)
        b = SearchStats(grows=4, merges=2, results_found=1, elapsed_seconds=0.25)
        merged = SearchStats.merged([a, b])
        assert merged.grows == 7
        assert merged.merges == 3
        assert merged.results_found == 3
        assert merged.elapsed_seconds == pytest.approx(0.75)
        assert merged.provenances == a.provenances + b.provenances

    def test_merge_in_place_returns_self(self):
        a = SearchStats(grows=1)
        assert a.merge(SearchStats(grows=2)) is a
        assert a.grows == 3

    def test_merged_empty_is_zero(self):
        assert SearchStats.merged([]).as_dict() == SearchStats().as_dict()

    def test_counter_merge_is_order_independent(self):
        runs = [SearchStats(grows=i, trees_kept=i * 2, pool_sets=i % 3) for i in range(6)]
        forward = SearchStats.merged(runs)
        backward = SearchStats.merged(reversed(runs))
        assert forward.as_dict() == backward.as_dict()

    def test_query_reports_merge_deterministically(self, fig1):
        serial = evaluate_query(fig1, MATRIX_QUERY)
        parallel = _fallback(fig1, MATRIX_QUERY)
        merge = lambda result: SearchStats.merged(
            r.result_set.stats for r in result.ctp_reports
        )
        serial_merged, parallel_merged = merge(serial), merge(parallel)
        # Search-outcome counters are dispatch-independent; pool/timing
        # attribution is not (shared-pool deltas overlap under concurrency).
        for field in ("grows", "merges", "trees_kept", "results_found", "init_trees"):
            assert getattr(parallel_merged, field) == getattr(serial_merged, field)


# ----------------------------------------------------------------------
# evaluate_queries: the batch front-end
# ----------------------------------------------------------------------
TWO_CTP = """
SELECT ?x ?w1 ?w2 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "National Liberal Party") AS ?w2 MAX 2
}
"""


class TestEvaluateQueries:
    def test_empty_batch(self, fig1):
        batch = evaluate_queries(fig1, [])
        assert len(batch) == 0
        assert list(batch) == []
        assert batch.context is not None  # created, simply unused
        merged = SearchStats.merged(
            report.result_set.stats for result in batch for report in result.ctp_reports
        )
        assert merged.as_dict() == SearchStats().as_dict()

    def test_single_query_matches_evaluate_query(self, fig1):
        single = evaluate_query(fig1, TWO_CTP)
        batch = evaluate_queries(fig1, [TWO_CTP])
        assert len(batch) == 1
        assert batch[0].rows == single.rows

    def test_cross_query_memo_hits_counted(self, fig1):
        batch = evaluate_queries(fig1, [TWO_CTP, TWO_CTP, TWO_CTP])
        assert [r.cache_hit for r in batch[0].ctp_reports] == [False, False]
        for repeat in batch.results[1:]:
            assert all(report.cache_hit for report in repeat.ctp_reports)
            assert repeat.rows == batch[0].rows
        stats = batch.context_stats()
        assert stats["ctp_cache_hits"] == 4  # 2 CTPs x 2 repeated queries
        assert stats["runs"] == 2  # only the first query searched

    def test_parallel_batch_rows_identical(self, fig1):
        serial = evaluate_queries(fig1, [MATRIX_QUERY, TWO_CTP])
        with fallback_pool(fig1, 4) as pool:
            parallel = evaluate_queries(
                fig1, [MATRIX_QUERY, TWO_CTP], base_config=SearchConfig(parallelism=4), pool=pool
            )
        # Only the calling thread touches a batch's context.
        assert not parallel.context.thread_safe
        assert not serial.context.thread_safe
        for a, b in zip(serial, parallel):
            assert a.rows == b.rows

    def test_no_shared_context_baseline(self, fig1):
        """The batch's one context is reuse only: rows equal those of the
        same queries evaluated one by one, each in a context of its own."""
        batch = evaluate_queries(fig1, [TWO_CTP, TWO_CTP])
        alone = [evaluate_query(fig1, TWO_CTP) for _ in range(2)]
        assert [result.rows for result in batch] == [result.rows for result in alone]
        assert all(not r.cache_hit for result in alone for r in result.ctp_reports)
        assert all(r.cache_hit for r in batch[1].ctp_reports)

    def test_graph_growth_rejected_by_fingerprint_guard(self):
        """Reusing a batch context after the graph grew must re-search:
        the memo key's size fingerprint invalidates pre-growth entries."""
        graph = Graph("growing")
        a, b = graph.add_node("A"), graph.add_node("B")
        mid = graph.add_node("M")
        graph.add_edge(a, mid, "e")
        graph.add_edge(mid, b, "e")
        query = 'SELECT ?w WHERE { CONNECT("A", "B") AS ?w }'
        context = SearchContext(thread_safe=True)
        config = SearchConfig(parallelism=2)
        first = evaluate_queries(graph, [query, query], base_config=config, context=context)
        assert len(first[0]) == 1
        assert all(r.cache_hit for r in first[1].ctp_reports)
        mid2 = graph.add_node("M2")
        graph.add_edge(a, mid2, "e")
        graph.add_edge(mid2, b, "e")
        second = evaluate_queries(graph, [query], base_config=config, context=context)
        assert not second[0].ctp_reports[0].cache_hit  # guard rejected reuse
        assert len(second[0]) == 2  # the new connection, not the stale set

    def test_merged_stats_count_all_queries(self, fig1):
        batch = evaluate_queries(fig1, [TWO_CTP, TWO_CTP])
        merged = SearchStats.merged(
            report.result_set.stats for result in batch for report in result.ctp_reports
        )
        per_query = [
            SearchStats.merged(r.result_set.stats for r in result.ctp_reports)
            for result in batch
        ]
        assert merged.results_found == sum(s.results_found for s in per_query)
