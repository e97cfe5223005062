"""``ctp_synthetic`` — paper Fig. 10/11: complete enumeration on Line/Comb/Star.

Why it exists: the paper's claim is that runtime tracks the number of
provenances built, and that MoESP/MoLESP build far fewer than GAM.  Every
graph here has < 200 nodes, so ``repro.ctp`` (grow, merge, history,
interning) does practically all the work; graph storage, the query layer
and the server do none.  The provenance counts repeat exactly from run to
run, which is what makes them usable as evidence.

The points are fixed (they are the figure's parameters, not a sample);
``--seed`` only draws the order of operations in each pass.  No single
operation takes more than ~10 % of a pass, so one slow point cannot
decide the pass throughput.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.ctp import SearchStats, evaluate_ctp, validate_result
from repro.workloads import comb_graph, line_graph, star_graph

from harness import Op, Recorder, RunParams
from passes import PassState, PassWorkload, file_record, search_record

ALGORITHMS = ("gam", "moesp", "molesp")

#: (generator, args): Line(m, nL) has sL = nL + 1; Comb(nA, nS, sL); Star(m, sL).
POINTS = (
    ("line", (10, 9)),
    ("line", (6, 9)),
    ("comb", (4, 1, 3)),
    ("comb", (6, 1, 2)),
    ("comb", (4, 2, 2)),
    ("comb", (5, 1, 4)),
    ("comb", (3, 2, 2)),
    ("star", (8, 2)),
    ("star", (7, 4)),
    ("star", (6, 6)),
    ("star", (5, 10)),
)
SMOKE_POINTS = (("line", (4, 2)), ("comb", (2, 1, 2)), ("star", (4, 2)))

_GENERATORS = {"line": line_graph, "comb": comb_graph, "star": star_graph}


def _signature(result_set: Any) -> tuple:
    return (
        len(result_set),
        result_set.stats.provenances,
        result_set.complete,
        result_set.timed_out,
    )


class CtpSynthetic(PassWorkload):
    name = "ctp_synthetic"

    def build(self, params: RunParams) -> PassState:
        ops: List[Op] = []
        inputs: Dict[str, Any] = {}
        for kind, args in SMOKE_POINTS if params.smoke else POINTS:
            graph, seed_sets = _GENERATORS[kind](*args)
            for algorithm in ALGORITHMS:
                name = f"{kind}{args}/{algorithm}".replace(" ", "")
                inputs[name] = (graph, seed_sets)
                ops.append(
                    Op(
                        name,
                        # default arguments bind this iteration's values
                        lambda g=graph, s=seed_sets, a=algorithm: evaluate_ctp(g, s, a),
                        _signature,
                    )
                )
        state = PassState(ops=ops, extra={"inputs": inputs})
        state.warm_up()
        return state

    def traced_pass(self, state: PassState, recorder: Recorder, order: Sequence[int]) -> Dict[str, Any]:
        search_s = 0.0
        runs = []
        for index in order:
            op = state.ops[index]
            with recorder.span("evaluate_ctp", "ctp", request=op.name) as span:
                result_set = op.call()
            search_s += span.end - span.start
            runs.append(result_set.stats)
        return {
            "wall": search_s,
            "searches": len(runs),
            "search_s": search_s,
            "ctp_stage_s": search_s,
            "stats": SearchStats.merged(runs).as_dict(),
        }

    def check(self, state: PassState, expected: Optional[Dict[str, Any]], problems: List[str]) -> set:
        bad = set()
        inputs = state.extra.pop("inputs")
        for name, result_set in state.warm.items():
            graph, seed_sets = inputs[name]
            issues = [p for tree in result_set for p in validate_result(graph, tree, seed_sets)]
            if result_set.timed_out or not result_set.complete:
                issues.append("search did not run to completion")
            file_record(state, name, search_record(result_set), issues, expected, problems, bad)
        return bad


WORKLOAD = CtpSynthetic()

