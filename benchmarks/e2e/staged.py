"""Staged replay of one EQL query under the span recorder.

The traced run cannot see inside ``evaluate_query`` (spans inside ``src/``
are a later issue), so it calls each layer's public entry point on its
own first — ``parse_query``, ``evaluate_bgp`` per BGP, seed derivation —
and then ``evaluate_query`` on the parsed query, filing the stage times
the program itself reports (``QueryResult.timings``, ``CTPReport``) as
child spans.  The staged calls repeat work the real evaluation does
again; that is tracing overhead and is reported as such.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.ctp import SearchStats
from repro.query import evaluate_bgp, evaluate_query, parse_query
from repro.query.evaluator import derive_binding_values, match_seed_nodes

from harness import Recorder

_SUMS = (
    "queries", "parser_s", "bgp_s", "seeds_s", "ctp_stage_s", "join_s", "query_s",
    "search_s", "searches", "bgp_rows", "join_rows", "seed_nodes", "seed_sets",
    "overhead_s", "overhead_queries", "overhead_query_s",
)


def new_totals() -> Dict[str, Any]:
    totals: Dict[str, Any] = {key: 0.0 for key in _SUMS}
    totals["modes"] = {}
    totals["runs"] = []
    return totals


def close_totals(totals: Dict[str, Any]) -> Dict[str, Any]:
    """Fold the collected per-search ``SearchStats`` into one dict."""
    totals["stats"] = SearchStats.merged(totals.pop("runs")).as_dict()
    # Shares are of the real calls' time; the staged BGP / seed calls
    # duplicate work and only count as tracing overhead.
    totals["wall"] = totals["parser_s"] + totals["query_s"]
    return totals


def staged_query(
    recorder: Recorder,
    graph: Any,
    text: str,
    request: Any,
    totals: Dict[str, Any],
    **evaluate_kwargs: Any,
) -> Any:
    """Replay ``text`` layer by layer; add what was seen to ``totals``."""
    with recorder.span("query", "evaluator", request=request):
        with recorder.span("parse_query", "parser") as span:
            query = parse_query(text)
        totals["parser_s"] += span.end - span.start
        with recorder.span("evaluate_bgp", "bgp"):
            tables = [evaluate_bgp(graph, bgp) for bgp in query.bgps()]
        totals["bgp_rows"] += sum(len(table) for table in tables)
        seed_vars = {seed.var for ctp in query.ctps for seed in ctp.seeds}
        with recorder.span("derive_seeds", "seeds") as span:
            bound = derive_binding_values(tables, only=seed_vars)
            for ctp in query.ctps:
                for seed in ctp.seeds:
                    if seed.var not in bound and not seed.is_empty:
                        match_seed_nodes(graph, seed)
        totals["seeds_s"] += span.end - span.start
        with recorder.span("evaluate_query", "evaluator") as span:
            result = evaluate_query(graph, query, **evaluate_kwargs)
        timings = result.timings
        recorder.synthetic(span, "bgp", "bgp", timings.bgp_seconds)
        stage = recorder.synthetic(span, "ctp_stage", "parallel", timings.ctp_seconds)
        recorder.synthetic(span, "join", "join", timings.join_seconds)
    executed = [report for report in result.ctp_reports if not report.cache_hit]
    for report in result.ctp_reports:
        mode = report.dispatch_mode
        totals["modes"][mode] = totals["modes"].get(mode, 0) + 1
        sizes = [size for size in report.seed_set_sizes if size is not None]
        totals["seed_nodes"] += sum(sizes)
        totals["seed_sets"] += len(sizes)
    for report in executed:
        recorder.synthetic(stage, "search", "ctp", report.seconds, mode=report.dispatch_mode)
        totals["runs"].append(report.result_set.stats)
    totals["queries"] += 1
    totals["query_s"] += span.end - span.start
    totals["bgp_s"] += timings.bgp_seconds
    totals["ctp_stage_s"] += timings.ctp_seconds
    totals["join_s"] += timings.join_seconds
    totals["join_rows"] += len(result.rows)
    totals["search_s"] += sum(report.seconds for report in executed)
    totals["searches"] += len(executed)
    if executed:
        # CTP-stage time not spent searching.  Searches overlap under
        # thread/process dispatch (the slowest one is on the blocking
        # path) and add up under serial dispatch.
        seconds = [report.seconds for report in executed]
        overlapped = any(report.dispatch_mode in ("process", "thread") for report in executed)
        critical = max(seconds) if overlapped else sum(seconds)
        totals["overhead_s"] += max(timings.ctp_seconds - critical, 0.0)
        totals["overhead_queries"] += 1
        totals["overhead_query_s"] += span.end - span.start
    return result
