"""E-tab1 — Table 1: full EQL queries on a YAGO3-like graph.

Three queries of increasing hostility (Section 5.5.2):

* **J1** — 3 BGPs, 2 CTPs: selective seed sets; every engine can try.
* **J2** — 2 BGPs, 1 CTP with one *very large* seed set: requires the
  balanced-queue optimization of Section 4.9 (ii).
* **J3** — a single CTP with an ``N`` (wildcard) seed set: requires
  Section 4.9 (i).

We report per-engine seconds, and for the MoLESP pipeline the CTP share of
the total time (the paper: "MoLESP took around 30% of the total time, the
rest being spent ... in the BGP evaluation and final joins").  In the
paper Virtuoso OOMs after J1 and Neo4j/Postgres time out; our simulators
measure the same regimes at our scale (the check-only Virtuoso-like
engine does not run out of memory in-process).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.baselines.path_engines import jedi_like_engine, neo4j_like_engine
from repro.baselines.stitching import stitch_paths
from repro.bench.harness import ExperimentReport, time_call
from repro.ctp.config import SearchConfig
from repro.query.evaluator import evaluate_query
from repro.query.parser import parse_query
from repro.query.bgp import evaluate_bgp
from repro.workloads.realworld import j1_query, j2_query, j3_query, yago_like


def _molesp_row(graph, query_text: str, timeout: float, repeats: int) -> Tuple[float, dict]:
    seconds, result = time_call(
        lambda: evaluate_query(graph, query_text, default_timeout=timeout), repeats
    )
    total = result.timings.total_seconds or 1e-9
    return seconds, {
        "answers": len(result),
        "ctp_share": round(result.timings.ctp_seconds / total, 2),
        "timed_out": any(r.result_set.timed_out for r in result.ctp_reports),
    }


def _path_engine_row(graph, query_text: str, engine_factory: Callable, timeout: float, repeats: int) -> Tuple[float, dict]:
    """Drive a path engine over the query's CTP endpoints (BGPs via our engine).

    The real JEDI/Neo4j also evaluate the conjunctive part themselves; we
    delegate it to the shared BGP matcher so the comparison isolates the
    connection-search regime, as in the paper.
    """
    query = parse_query(query_text)

    def job():
        from repro.query.evaluator import _seed_sets_for_ctp, derive_binding_values  # shared logic
        from repro.ctp.config import WILDCARD

        bgp_tables = [evaluate_bgp(graph, bgp) for bgp in query.bgps()]
        seed_vars = {seed.var for ctp in query.ctps for seed in ctp.seeds}
        binding_values = derive_binding_values(bgp_tables, only=seed_vars)
        engine = engine_factory()
        total_answers = 0
        timed_out = False
        for ctp in query.ctps:
            seed_sets, _, _, _ = _seed_sets_for_ctp(graph, ctp, binding_values)
            resolved = [list(graph.node_ids()) if s is WILDCARD else list(s) for s in seed_sets]
            max_hops = ctp.filters.max_edges
            if max_hops is not None:
                engine.max_hops = max_hops
            sources = resolved[0]
            if len(resolved) == 2:
                outcome = engine.run(graph, sources, resolved[1], timeout=timeout)
                timed_out |= outcome.timed_out
                total_answers += outcome.total_paths or len(outcome.connected_pairs)
            else:
                part_a = engine.run(graph, sources, resolved[1], timeout=timeout / 2.0)
                part_b = engine.run(graph, sources, resolved[2], timeout=timeout / 2.0)
                stitched = stitch_paths(graph, part_a.paths, part_b.paths, max_joins=2_000_000)
                timed_out |= part_a.timed_out or part_b.timed_out or stitched.truncated
                total_answers += len(stitched.trees)
        return total_answers, timed_out

    seconds, (answers, timed_out) = time_call(job, repeats)
    return seconds, {"answers": answers, "ctp_share": None, "timed_out": timed_out}


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 5.0
    dataset = yago_like(scale=0.05 * scale)
    graph = dataset.graph
    report = ExperimentReport(
        experiment="table1",
        title="Table 1: J1-J3 EQL queries on a YAGO3-like graph",
        config={"scale": scale, "timeout": timeout, "graph_edges": graph.num_edges},
    )
    queries: List[Tuple[str, str]] = [
        ("J1", j1_query(f"MAX 3 LIMIT 500 TIMEOUT {timeout}")),
        ("J2", j2_query(f"MAX 3 TIMEOUT {timeout}")),
        ("J3", j3_query(f"MAX 3 LIMIT 200 TIMEOUT {timeout}")),
    ]
    for name, text in queries:
        seconds, extra = _molesp_row(graph, text, timeout, repeats)
        report.add_row(query=name, engine="molesp-eql", time_s=round(seconds, 3), **extra)
        for engine_name, factory in (
            ("jedi-like", lambda: jedi_like_engine()),
            ("neo4j-like", lambda: neo4j_like_engine(max_hops=4)),
        ):
            try:
                seconds, extra = _path_engine_row(graph, text, factory, timeout, repeats)
                report.add_row(query=name, engine=engine_name, time_s=round(seconds, 3), **extra)
            except Exception as error:  # engines cannot express every query
                report.add_row(query=name, engine=engine_name, time_s=None, answers=None, ctp_share=None, timed_out=str(error))
    report.note("paper: Virtuoso completed J1 then OOM'd; Neo4j timed out on J1/J2; MoLESP ~30% of total time")
    return report
