"""``eql_paper`` — Table 1 + Fig. 13/14: whole EQL queries, evaluated serially.

Why it exists: the paper's point is *integration* — a query is BGP step
(A) -> seed sets -> CTP search (B) -> join (C), and on Table 1 "MoLESP
took around 30% of the total time".  This is the only workload where
``repro.query.bgp``, seed derivation and ``repro.storage.relational``
carry weight; the server, the worker pool and process dispatch do
nothing here.  The class mix keeps BGP + seeds + join at >= 30 % of the
time (the traced run reports the shares).

Data sets are fixed stand-ins, as YAGO is a fixed data set: the YAGO-like
graph with its default generator seed, and two CDF graphs.  The query
catalogue (J1-J3, BGP chains with a selective CONNECT, BGP-only
conjunctive queries, the four CDF queries) is fixed too; ``--seed``
draws the order of the queries in each pass.  Every CONNECT is bounded
by ``MAX``/``LIMIT``, never by a timeout, so rows do not depend on the
wall clock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ctp import validate_result
from repro.query import evaluate_query
from repro.workloads import cdf_graph, cdf_query, j1_query, j2_query, j3_query, yago_like

from harness import Op, Recorder, RunParams, rows_digest
from passes import PassState, PassWorkload, file_record
from staged import close_totals, new_totals, staged_query

def _chain(l1: str, l2: str, l3: str, node_type: str) -> str:
    """A three-pattern BGP chain closed by a selective CONNECT."""
    return (
        f'SELECT ?a ?d ?w WHERE {{ ?a {l1} ?b . ?b {l2} ?c . ?c {l3} ?d . '
        f'FILTER(type(?a) = "{node_type}") CONNECT(?a, ?d) AS ?w MAX 2 LIMIT 50 }}'
    )


def _conjunctive(l1: str, l2: str, t1: str, t2: str) -> str:
    """A BGP-only query: a two-hop path with typed ends (no CONNECT)."""
    return (
        f'SELECT ?a ?c WHERE {{ ?a {l1} ?b . ?b {l2} ?c . '
        f'FILTER(type(?a) = "{t1}") FILTER(type(?c) = "{t2}") }}'
    )


#: Frequent predicates only, so every BGP has embeddings at this scale;
#: BGP evaluation is 55-75 % of each chain's time.
CHAINS = (
    _chain("type", "type", "linksTo", "organization"),
    _chain("locatedIn", "linksTo", "worksFor", "organization"),
    _chain("linksTo", "linksTo", "worksFor", "work"),
    _chain("bornIn", "linksTo", "linksTo", "event"),
)
CONJUNCTIVE = (
    _conjunctive("type", "worksFor", "category", "person"),
    _conjunctive("worksFor", "linksTo", "person", "organization"),
    _conjunctive("worksFor", "type", "event", "organization"),
    _conjunctive("locatedIn", "locatedIn", "category", "person"),
    _conjunctive("worksFor", "linksTo", "place", "work"),
    _conjunctive("type", "locatedIn", "person", "event"),
    _conjunctive("locatedIn", "locatedIn", "place", "organization"),
    _conjunctive("type", "bornIn", "person", "place"),
    _conjunctive("worksFor", "type", "organization", "event"),
    _conjunctive("linksTo", "locatedIn", "organization", "person"),
)


def _signature(result: Any) -> tuple:
    return (
        len(result.rows),
        tuple(len(r.result_set) for r in result.ctp_reports),
        tuple(r.result_set.stats.provenances for r in result.ctp_reports),
        any(r.result_set.timed_out for r in result.ctp_reports),
    )


class EqlPaper(PassWorkload):
    name = "eql_paper"

    def catalogue(self, smoke: bool) -> List[Tuple[str, str, str]]:
        """(name, graph key, EQL text) of every query of a pass."""
        chains = CHAINS[:1] if smoke else CHAINS
        conjunctive = CONJUNCTIVE[:2] if smoke else CONJUNCTIVE
        queries = [
            ("J1", "yago", j1_query("MAX 3 LIMIT 500")),
            ("J2", "yago", j2_query("MAX 2 LIMIT 100")),
            ("J3", "yago", j3_query("MAX 3 LIMIT 200")),
        ]
        queries += [(f"chain-{i}", "yago", text) for i, text in enumerate(chains)]
        queries += [(f"bgp-{i}", "yago", text) for i, text in enumerate(conjunctive)]
        for m in (2, 3):
            for flag in ("", "UNI"):
                queries.append((f"cdf-m{m}{'-uni' if flag else ''}", f"cdf{m}", cdf_query(m, flag)))
        return queries

    def build(self, params: RunParams) -> PassState:
        if params.smoke:
            graphs = {
                "yago": yago_like(scale=0.05).graph,
                "cdf2": cdf_graph(8, 16, 3, m=2, seed=17).graph,
                "cdf3": cdf_graph(6, 12, 3, m=3, seed=23).graph,
            }
        else:
            graphs = {
                "yago": yago_like(scale=1.0).graph,
                "cdf2": cdf_graph(80, 160, 3, m=2, seed=17).graph,
                "cdf3": cdf_graph(40, 80, 3, m=3, seed=23).graph,
            }
        ops = [
            Op(name, lambda g=graphs[key], t=text: evaluate_query(g, t), _signature)
            for name, key, text in self.catalogue(params.smoke)
        ]
        state = PassState(ops=ops, extra={"graphs": graphs, "texts": {
            name: (key, text) for name, key, text in self.catalogue(params.smoke)}})
        state.warm_up()
        return state

    def traced_pass(self, state: PassState, recorder: Recorder, order: Sequence[int]) -> Dict[str, Any]:
        totals = new_totals()
        graphs, texts = state.extra["graphs"], state.extra["texts"]
        for index in order:
            name = state.ops[index].name
            key, text = texts[name]
            staged_query(recorder, graphs[key], text, name, totals)
        return close_totals(totals)

    def check(self, state: PassState, expected: Optional[Dict[str, Any]], problems: List[str]) -> set:
        bad = set()
        graphs, texts = state.extra.pop("graphs"), state.extra.pop("texts")
        for name, result in state.warm.items():
            graph = graphs[texts[name][0]]
            issues: List[str] = []
            for report in result.ctp_reports:
                if report.result_set.timed_out:
                    issues.append(f"CTP ?{report.tree_var} timed out")
                wildcard = [i for i, size in enumerate(report.seed_set_sizes) if size is None]
                for tree in report.result_set:
                    # The reported seeds stand in for the seed sets: the
                    # check is that the tree is a minimal tree over them.
                    seed_sets = [() if seed is None else (seed,) for seed in tree.seeds]
                    issues.extend(validate_result(graph, tree, seed_sets, wildcard))
            record = {
                "rows": len(result.rows),
                "results": [len(r.result_set) for r in result.ctp_reports],
                "provenances": [r.result_set.stats.provenances for r in result.ctp_reports],
                "digest": rows_digest(result.rows),
            }
            file_record(state, name, record, issues, expected, problems, bad)
        return bad


WORKLOAD = EqlPaper()

