"""The per-layer metric catalogue and how totals become metrics.

``PER_LAYER`` is the interaction list of ISSUE 11 as data: for each
metric, the module (layer) it observes, its unit and direction, and the
``(end-to-end metric, workload)`` pairs it is expected to move — written
down *before* measuring, so a later issue's claim can be checked against
it.  ``BENCHMARK.json``'s ``per_layer`` list is exactly these names,
units and directions (the smoke test compares them).

Layers are this repository's modules:

=========  ===========================================================
parser     ``repro.query.parser``
bgp        ``repro.query.bgp`` (+ ``repro.storage.triple_store``)
seeds      seed derivation in ``repro.query.evaluator``
ctp        ``repro.ctp`` engines (grow / merge / history / queues)
interning  ``repro.ctp.interning`` (edge-set pool, memo, rooted cache)
join       ``repro.storage.relational`` / ``repro.storage.table``
evaluator  ``repro.query.evaluator`` glue (self time)
parallel   ``repro.query.parallel`` (dispatch, pickle, memo filing)
pool       ``repro.query.pool`` (persistent workers, snapshots)
server     ``repro.serve.server`` (admission, view pinning, stats)
graph      ``repro.graph.graph`` + the workload generators
backend    ``repro.graph.backend`` (CSR freeze, adjacency caches)
snapshot   ``repro.graph.snapshot`` (save / mmap load)
search     whole-search memory growth (``repro.ctp.idremap`` + pools)
delta      ``repro.graph.delta`` + ingest path
trace      the benchmark's own recorder
=========  ===========================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from harness import ratio

Moves = Tuple[Tuple[str, str], ...]

_SERVE = ("serve_read", "serve_ingest")
_ALL = ("ctp_synthetic", "eql_paper", "serve_read", "serve_ingest", "kg_scale")


def _moves(metric: str, *workloads: str) -> Moves:
    return tuple((metric, workload) for workload in workloads)


#: (name, unit, better, moves, what it is / where it comes from)
PER_LAYER: List[Tuple[str, str, str, Moves, str]] = [
    ("parser.ms_per_query", "ms", "lower", _moves("latency_p50_ms", "eql_paper"),
     "direct parse_query call; sentinel, expected < 1 % of a query"),
    ("parser.time_share", "share", "lower", _moves("latency_p50_ms", "eql_paper"),
     "parser time / traced wall"),
    ("bgp.ms_per_query", "ms", "lower",
     _moves("latency_p50_ms", "eql_paper") + _moves("throughput_ops_s", "eql_paper"),
     "QueryResult.timings.bgp_seconds; ~0 on ctp_synthetic and kg_scale"),
    ("bgp.time_share", "share", "lower", _moves("throughput_ops_s", "eql_paper"),
     "BGP step (A) time / traced wall"),
    ("bgp.rows_out_per_query", "count", "lower", _moves("latency_p50_ms", "eql_paper"),
     "embeddings materialised by the staged evaluate_bgp calls"),
    ("seeds.ms_per_query", "ms", "lower",
     _moves("latency_p50_ms", "eql_paper", "serve_read"),
     "staged derive_binding_values / match_seed_nodes"),
    ("seeds.time_share", "share", "lower", _moves("latency_p50_ms", "eql_paper"),
     "seed derivation time / traced wall"),
    ("seeds.nodes_per_ctp", "count", "lower",
     _moves("latency_p50_ms", "eql_paper", "serve_read"),
     "mean explicit seed-set size per CTP (CTPReport.seed_set_sizes)"),
    ("ctp.ms_per_ctp", "ms", "lower", _moves("latency_p50_ms", *_ALL),
     "search wall per executed CTP (CTPReport.seconds / evaluate_ctp wall)"),
    ("ctp.time_share", "share", "lower",
     _moves("throughput_ops_s", "ctp_synthetic", "kg_scale"),
     "CTP step (B) time / traced wall; >= 0.9 on ctp_synthetic"),
    ("ctp.us_per_provenance", "us", "lower",
     _moves("cpu_ms_per_op", "ctp_synthetic", "kg_scale"),
     "search time / provenances built (the paper's Fig. 11 claim)"),
    ("ctp.provenances_per_op", "count", "lower",
     _moves("throughput_ops_s", "ctp_synthetic", "kg_scale"),
     "exact: SearchStats.provenances per executed CTP"),
    ("ctp.grows_per_op", "count", "lower", _moves("cpu_ms_per_op", "ctp_synthetic"),
     "exact: SearchStats.grows per executed CTP"),
    ("ctp.merges_per_op", "count", "lower", _moves("cpu_ms_per_op", "ctp_synthetic"),
     "exact: SearchStats.merges per executed CTP"),
    ("ctp.merge_success_ratio", "ratio", "higher", _moves("cpu_ms_per_op", "ctp_synthetic"),
     "merges / merges_attempted: wasted merge probes"),
    ("ctp.pruned_history_per_op", "count", "higher", _moves("cpu_ms_per_op", "ctp_synthetic"),
     "exact: trees discarded by the history check per CTP"),
    ("ctp.queue_pushes_per_op", "count", "lower", _moves("cpu_ms_per_op", "ctp_synthetic"),
     "exact: priority-queue pushes per CTP"),
    ("ctp.duplicate_result_ratio", "ratio", "lower", _moves("cpu_ms_per_op", "ctp_synthetic"),
     "duplicate_results / (results_found + duplicate_results)"),
    ("ctp.results_per_op", "count", "higher", _moves("latency_p50_ms", "eql_paper"),
     "exact: results per executed CTP"),
    ("interning.union_hit_ratio", "ratio", "higher", _moves("cpu_ms_per_op", "ctp_synthetic"),
     "pool_union_hits / (hits + misses) (SearchStats)"),
    ("interning.pool_sets_per_op", "count", "lower",
     _moves("cpu_ms_per_op", "ctp_synthetic") + _moves("peak_rss_mb", "serve_read"),
     "distinct edge sets interned per executed CTP"),
    ("interning.memo_hit_ratio", "ratio", "higher",
     _moves("latency_p50_ms", "serve_read") + _moves("throughput_ops_s", "serve_read"),
     "ctp_cache hits / lookups (context_stats / QueryServer.stats()['context'])"),
    ("interning.rooted_hit_ratio", "ratio", "higher", _moves("latency_p50_ms", "serve_read"),
     "rooted_cache hits / lookups"),
    ("interning.cache_bytes", "bytes", "lower", _moves("peak_rss_mb", "serve_read"),
     "ctp_cache_bytes + rooted_cache_bytes at the end (uncapped pool, ROADMAP 5c)"),
    ("join.ms_per_query", "ms", "lower", _moves("latency_p95_ms", "eql_paper"),
     "QueryResult.timings.join_seconds (J2, CDF)"),
    ("join.time_share", "share", "lower", _moves("latency_p95_ms", "eql_paper"),
     "join step (C) time / traced wall"),
    ("join.rows_out_per_query", "count", "lower", _moves("latency_p95_ms", "eql_paper"),
     "rows of the final answer per query"),
    ("evaluator.self_share", "share", "lower", _moves("latency_p50_ms", "eql_paper"),
     "(query wall - bgp - ctp stage - join) / traced wall"),
    ("parallel.overhead_ms_per_query", "ms", "lower",
     _moves("latency_p50_ms", *_SERVE) + _moves("throughput_ops_s", *_SERVE),
     "timings.ctp_seconds - slowest non-memo CTPReport.seconds: pickle, queue, memo filing"),
    ("parallel.overhead_share", "share", "lower", _moves("throughput_ops_s", *_SERVE),
     "dispatch overhead / query wall of the staged sample; ~0 on eql_paper"),
    ("parallel.mode_share.process", "share", "higher", _moves("throughput_ops_s", *_SERVE),
     "share of CTPs a pool worker executed (dispatch_modes)"),
    ("parallel.mode_share.thread", "share", "lower", _moves("throughput_ops_s", *_SERVE),
     "share of CTPs degraded to thread dispatch; silent degradation shows here"),
    ("parallel.mode_share.serial", "share", "lower", _moves("throughput_ops_s", *_SERVE),
     "share of CTPs run serially on the handling thread"),
    ("parallel.mode_share.memo", "share", "higher", _moves("latency_p50_ms", "serve_read"),
     "share of CTPs served from the cross-request memo"),
    ("pool.prewarm_s", "s", "lower", _moves("setup_s", *_SERVE),
     "QueryServer.prewarm(): spawn workers, load the snapshot"),
    ("pool.dispatches_per_request", "count", "lower", _moves("latency_p50_ms", *_SERVE),
     "pool.stats()['dispatches'] delta / requests"),
    ("pool.respawns", "count", "lower", _moves("latency_p95_ms", "serve_ingest"),
     "worker respawns during the stream; zero on serve_read"),
    ("pool.resnapshots", "count", "lower", _moves("latency_p95_ms", "serve_ingest"),
     "full re-snapshots during the stream; zero on serve_read"),
    ("pool.compactions", "count", "lower", _moves("latency_p95_ms", "serve_ingest"),
     "delta compactions; >= 3 on serve_ingest, 0 on serve_read"),
    ("pool.resnapshots_avoided", "count", "higher", _moves("latency_p95_ms", "serve_ingest"),
     "dispatches that shipped a delta instead of re-snapshotting"),
    ("server.self_ms_per_request", "ms", "lower", _moves("latency_p50_ms", *_SERVE),
     "client-side latency - ResponseStats.seconds"),
    ("server.rejected_share", "share", "lower", _moves("throughput_ops_s", *_SERVE),
     "STATUS_REJECTED / attempted (closed loop below max_pending: 0)"),
    ("server.shed_share", "share", "lower", _moves("throughput_ops_s", *_SERVE),
     "STATUS_SHED / attempted"),
    ("server.within_limit_share", "share", "higher", _moves("latency_p95_ms", *_SERVE),
     "requests answered ok within 150 ms / attempted (a failure is a miss)"),
    ("graph.build_s", "s", "lower", _moves("setup_s", "kg_scale", *_SERVE),
     "generator + Graph.add_node/add_edge"),
    ("graph.edges_per_s", "1/s", "higher", _moves("setup_s", "kg_scale"),
     "edges / graph.build_s"),
    ("backend.freeze_s", "s", "lower", _moves("setup_s", "kg_scale", *_SERVE),
     "freeze(graph) -> CSRGraph"),
    ("backend.rss_mb_after_freeze", "MB", "lower", _moves("peak_rss_mb", "kg_scale"),
     "VmRSS once dict graph and CSR both exist"),
    ("backend.first_touch_pass_s", "s", "lower", _moves("setup_s", "kg_scale"),
     "first pass over the mmap-loaded CSR (lazy adjacency caches fill)"),
    ("snapshot.save_s", "s", "lower", _moves("setup_s", "kg_scale"),
     "save_snapshot"),
    ("snapshot.load_s", "s", "lower", _moves("setup_s", "kg_scale"),
     "load_snapshot(use_mmap=True); documented O(metadata), measured O(n)"),
    ("snapshot.bytes_per_edge", "bytes", "lower", _moves("setup_s", "kg_scale"),
     "snapshot file size / edges"),
    ("search.rss_delta_mb", "MB", "lower", _moves("peak_rss_mb", "kg_scale"),
     "resident set after the traced pass - resident set before the first search"),
    ("delta.ingest_ms_per_batch", "ms", "lower", _moves("throughput_ops_s", "serve_ingest"),
     "mean QueryServer.ingest latency"),
    ("delta.write_latency_p50_ms", "ms", "lower", _moves("throughput_ops_s", "serve_ingest"),
     "median QueryServer.ingest latency"),
    ("delta.size_at_end", "count", "lower", _moves("latency_p50_ms", "serve_ingest"),
     "QueryServer.stats()['delta_size'] when the stream ends"),
    ("delta.generations_served", "count", "higher", _moves("latency_p50_ms", "serve_ingest"),
     "distinct generations stamped on ok responses"),
    ("delta.compact_stall_ms_max", "ms", "lower", _moves("latency_p95_ms", "serve_ingest"),
     "slowest request overlapping a compaction - median request"),
    ("trace.overhead_share", "share", "lower", (),
     "(traced wall - untraced wall) / untraced wall of the same pass"),
]

PER_LAYER_NAMES = tuple(entry[0] for entry in PER_LAYER)


def layer_metrics(totals: Mapping[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from a traced run's totals (absent -> 0).

    ``totals`` keys (all optional): ``wall`` (traced wall), ``queries``,
    ``parser_s``/``bgp_s``/``seeds_s``/``ctp_stage_s``/``join_s``/
    ``query_s``, ``bgp_rows``/``join_rows``, ``seed_nodes``/``seed_sets``,
    ``searches`` and ``search_s`` (executed CTPs and their summed search
    time), ``stats`` (a ``SearchStats.as_dict()``), ``context`` (a
    ``stats_dict()``), ``overhead_s``/``overhead_queries``/
    ``overhead_query_s``, ``modes`` (dispatch-mode counts), plus any
    metric name given directly (set-up stage timings, pool counters...).
    """
    def get(key: str) -> float:
        return totals.get(key, 0.0) or 0.0

    wall = get("wall")
    queries = get("queries")
    searches = get("searches")
    stats = totals.get("stats") or {}
    context = totals.get("context") or {}
    modes = totals.get("modes") or {}
    mode_total = sum(modes.values())

    def s(key: str) -> float:
        return stats.get(key, 0)

    evaluator_self = get("query_s") - get("bgp_s") - get("ctp_stage_s") - get("join_s")
    out = {
        "parser.ms_per_query": ratio(get("parser_s") * 1e3, queries),
        "parser.time_share": ratio(get("parser_s"), wall),
        "bgp.ms_per_query": ratio(get("bgp_s") * 1e3, queries),
        "bgp.time_share": ratio(get("bgp_s"), wall),
        "bgp.rows_out_per_query": ratio(get("bgp_rows"), queries),
        "seeds.ms_per_query": ratio(get("seeds_s") * 1e3, queries),
        "seeds.time_share": ratio(get("seeds_s"), wall),
        "seeds.nodes_per_ctp": ratio(get("seed_nodes"), get("seed_sets")),
        "ctp.ms_per_ctp": ratio(get("search_s") * 1e3, searches),
        "ctp.time_share": ratio(get("ctp_stage_s"), wall),
        "ctp.us_per_provenance": ratio(get("search_s") * 1e6, s("provenances")),
        "ctp.provenances_per_op": ratio(s("provenances"), searches),
        "ctp.grows_per_op": ratio(s("grows"), searches),
        "ctp.merges_per_op": ratio(s("merges"), searches),
        "ctp.merge_success_ratio": ratio(s("merges"), s("merges_attempted")),
        "ctp.pruned_history_per_op": ratio(s("pruned_history"), searches),
        "ctp.queue_pushes_per_op": ratio(s("queue_pushes"), searches),
        "ctp.duplicate_result_ratio": ratio(
            s("duplicate_results"), s("results_found") + s("duplicate_results")
        ),
        "ctp.results_per_op": ratio(s("results_found"), searches),
        "interning.union_hit_ratio": ratio(
            s("pool_union_hits"), s("pool_union_hits") + s("pool_union_misses")
        ),
        "interning.pool_sets_per_op": ratio(s("pool_sets"), searches),
        "interning.memo_hit_ratio": ratio(
            context.get("ctp_cache_hits", 0),
            context.get("ctp_cache_hits", 0) + context.get("ctp_cache_misses", 0),
        ),
        "interning.rooted_hit_ratio": ratio(
            context.get("rooted_cache_hits", 0),
            context.get("rooted_cache_hits", 0) + context.get("rooted_cache_misses", 0),
        ),
        "interning.cache_bytes": float(
            context.get("ctp_cache_bytes", 0) + context.get("rooted_cache_bytes", 0)
        ),
        "join.ms_per_query": ratio(get("join_s") * 1e3, queries),
        "join.time_share": ratio(get("join_s"), wall),
        "join.rows_out_per_query": ratio(get("join_rows"), queries),
        "evaluator.self_share": ratio(max(evaluator_self, 0.0), wall),
        "parallel.overhead_ms_per_query": ratio(get("overhead_s") * 1e3, get("overhead_queries")),
        "parallel.overhead_share": ratio(get("overhead_s"), get("overhead_query_s")),
    }
    for mode in ("process", "thread", "serial", "memo"):
        out[f"parallel.mode_share.{mode}"] = ratio(modes.get(mode, 0), mode_total)
    for name in PER_LAYER_NAMES:
        out.setdefault(name, float(get(name)))
    return out
