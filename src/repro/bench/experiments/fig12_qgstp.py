"""E-fig12 — Figure 12: GAM and MoLESP vs QGSTP on a DBPedia-like graph.

The paper runs the 312 CTPs of QGSTP's DBPedia workload (83/98/85/38/8
CTPs with m = 2..6), aligning semantics with ``UNI`` + ``LIMIT 1``.
Expected shape (Section 5.4.3): MoLESP is fastest across all m and scales
with m; GAM is competitive for small m but times out at m=6; QGSTP
(polynomial, single-answer) sits in between and stays flat.

We run the same m-distribution on the seeded scale-free DBPedia substitute
(:mod:`repro.workloads.realworld`) and report average per-CTP time grouped by m.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.baselines.qgstp import QGSTPApproximation
from repro.bench.harness import ExperimentReport, time_call
from repro.ctp.config import SearchConfig
from repro.ctp.registry import get_algorithm
from repro.workloads.realworld import dbpedia_like, sample_ctp_workload

SYSTEMS = ("qgstp", "molesp", "gam")


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 5.0
    graph_scale = 0.05 * scale
    workload_scale = 0.1 * scale
    dataset = dbpedia_like(scale=graph_scale)
    workload = sample_ctp_workload(dataset.graph, scale=workload_scale, seed=42)
    report = ExperimentReport(
        experiment="fig12",
        title="Figure 12: QGSTP vs GAM vs MoLESP on DBPedia-like CTPs (UNI, LIMIT 1)",
        config={
            "scale": scale,
            "timeout": timeout,
            "graph_edges": dataset.graph.num_edges,
            "ctp_count": len(workload),
        },
    )
    by_group: Dict[tuple, List[float]] = defaultdict(list)
    timeouts: Dict[tuple, int] = defaultdict(int)
    solved: Dict[tuple, int] = defaultdict(int)
    config = SearchConfig(uni=True, limit=1, timeout=timeout)
    for seed_sets in workload:
        m = len(seed_sets)
        for system in SYSTEMS:
            if system == "qgstp":
                algorithm = QGSTPApproximation()
            else:
                algorithm = get_algorithm(system)
            seconds, results = time_call(lambda: algorithm.run(dataset.graph, seed_sets, config), repeats)
            by_group[(m, system)].append(seconds)
            if results.timed_out:
                timeouts[(m, system)] += 1
            if len(results):
                solved[(m, system)] += 1
    for (m, system) in sorted(by_group):
        samples = by_group[(m, system)]
        report.add_row(
            m=m,
            system=system,
            ctps=len(samples),
            avg_time_ms=round(sum(samples) / len(samples) * 1000.0, 3),
            solved=solved[(m, system)],
            timeouts=timeouts[(m, system)],
        )
    report.note("paper shape: MoLESP ~6-7x faster than QGSTP for all m; GAM competitive for m<=5, times out at m=6")
    return report
