"""ABL-01 — ablations of this reproduction's two interpretation choices.

The :mod:`repro.ctp.engine` docstring argues for two readings of the
paper's pseudocode; this experiment measures both choices so the
argument is empirical, not just textual:

1. **Merge2 relaxation.**  ``strict_merge2=True`` applies the literal
   ``sat(t1) ∩ sat(t2) = ∅``.  Expectation: on graphs whose results branch
   *at a seed* (Figure 4's comb shape), strict GAM loses results — i.e.
   the literal reading contradicts Property 1 — while on seed-leaf-only
   workloads (Star) both agree.

2. **Mo-injection condition.**  ``mo_inject_always=True`` injects Mo
   copies for every tree (Algorithm 3 read literally) instead of only on
   seed-coverage gains (the Section 4.5 text).  Expectation: identical
   results, strictly more provenances and time.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import ExperimentReport, time_call
from repro.ctp.config import SearchConfig
from repro.ctp.gam import GAMSearch
from repro.ctp.molesp import MoLESPSearch
from repro.graph.datasets import figure4
from repro.workloads.synthetic import comb_graph, line_graph, star_graph


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 5.0
    report = ExperimentReport(
        experiment="abl01",
        title="Ablations: strict Merge2 and unconditional Mo injection (repro.ctp.engine)",
        config={"scale": scale, "timeout": timeout},
    )
    workloads = [
        ("figure4", *figure4()),
        ("line(5, sL=3)", *line_graph(5, 2)),
        ("comb(3, 2, 3)", *comb_graph(3, 2, 3)),
        ("star(6, 2)", *star_graph(6, 2)),
    ]
    relaxed = SearchConfig(timeout=timeout)
    strict = SearchConfig(timeout=timeout, strict_merge2=True)
    for name, graph, seeds in workloads:
        gam = GAMSearch()
        seconds_relaxed, res_relaxed = time_call(lambda: gam.run(graph, seeds, relaxed), repeats)
        seconds_strict, res_strict = time_call(lambda: gam.run(graph, seeds, strict), repeats)
        report.add_row(
            ablation="merge2",
            workload=name,
            relaxed_results=len(res_relaxed),
            strict_results=len(res_strict),
            lost_by_strict=len(res_relaxed.edge_sets() - res_strict.edge_sets()),
            relaxed_ms=round(seconds_relaxed * 1000.0, 3),
            strict_ms=round(seconds_strict * 1000.0, 3),
        )
    report.note("merge2: lost_by_strict > 0 shows the literal Merge2 breaks GAM completeness (Property 1)")

    gain_only = SearchConfig(timeout=timeout)
    always = SearchConfig(timeout=timeout, mo_inject_always=True)
    for name, graph, seeds in workloads:
        molesp = MoLESPSearch()
        seconds_gain, res_gain = time_call(lambda: molesp.run(graph, seeds, gain_only), repeats)
        seconds_always, res_always = time_call(lambda: molesp.run(graph, seeds, always), repeats)
        report.add_row(
            ablation="mo-inject",
            workload=name,
            gain_results=len(res_gain),
            always_results=len(res_always),
            same_results=res_gain.edge_sets() == res_always.edge_sets(),
            gain_provenances=res_gain.stats.provenances,
            always_provenances=res_always.stats.provenances,
            gain_ms=round(seconds_gain * 1000.0, 3),
            always_ms=round(seconds_always * 1000.0, 3),
        )
    report.note("mo-inject: always-inject keeps the same results while building more provenances")
    return report
