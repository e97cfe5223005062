"""E-schedule — cost-model scheduling: tail latency under a deadline.

Not tied to a paper figure.  This is the load generator for the
scheduling PR's claim: under a whole-query deadline the historical
dispatch freezes every CTP's budget at job-build time at ~the full
remaining deadline (all jobs are built at ~query start), so a serial
query with k deadline-hungry CTPs overshoots to ~k × deadline wall —
the deadline stops bounding the *query*.  The
:class:`~repro.query.costmodel.DeadlineLedger` gives each CTP a
cost-proportional share instead (rebalanced upward at execution time as
fast CTPs finish under their shares), pulling the query back to ~one
deadline of wall time.

The generator drives a mixed easy/hard batch — mostly cheap 1-CTP
queries plus a few 3-CTP queries whose every CTP alone exceeds the
deadline — through serial dispatch with ``scheduling`` off and on, and
reports per-query latency percentiles.  The easy queries dominate p50
(unchanged); the hard queries *are* the tail, so p99 shows the
overshoot (off ≈ k × deadline) against the ledger (on ≈ deadline).
The checked-in JSON must satisfy **p99 on ≤ p99 off** — CI asserts it.

Two gates ride along:

* ``identity`` — without a deadline, rows for both query shapes are
  asserted bit-identical to serial dispatch under every scheduling
  permutation (off/on × serial/thread/process/auto) — the ``identical``
  column must be true in a checked-in JSON.
* ``auto`` — ``parallelism_mode="auto"`` over the same mixed batch:
  the cost model must send cheap 1-CTP queries to serial dispatch and
  the expensive multi-CTP ones to a worker fan-out.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentReport, Measurement
from repro.ctp.config import SearchConfig
from repro.query.evaluator import evaluate_query
from repro.workloads.synthetic import grouped_star

#: Complete (enumerate-every-tree) algorithm: hardness is controlled by
#: ``MAX`` — one extra edge of budget on the merge-heavy star explodes
#: the frontier, which is exactly the easy/hard contrast the batch needs.
ALGORITHM = "bft"
NUM_GROUPS = 5
ARM_LENGTH = 3
#: Tips-to-tip distance through the hub is ``2 * ARM_LENGTH``: MAX 6 is
#: the minimal (easy) budget, MAX 7 admits one detour (hard).
EASY_MAX = 6
HARD_MAX = 7
#: CTPs per hard query — the deadline-overshoot factor scheduling fixes.
HARD_CTPS = 3


def _query(pairs: Sequence[Tuple[int, int, int]]) -> str:
    """An EQL query with one ``CONNECT ... MAX`` per ``(a, b, max)`` triple."""
    filters: List[str] = []
    connects: List[str] = []
    heads: List[str] = []
    for v, (a, b, max_edges) in enumerate(pairs):
        filters.append(f'FILTER(type(?s{v}) = "g{a}")')
        filters.append(f'FILTER(type(?t{v}) = "g{b}")')
        connects.append(f"CONNECT(?s{v}, ?t{v}) AS ?w{v} MAX {max_edges}")
        heads.append(f"?w{v}")
    body = "\n      ".join(filters + connects)
    return f"SELECT {' '.join(heads)} WHERE {{\n      {body}\n    }}"


def _mixed_batch(num_easy: int, num_hard: int) -> List[str]:
    """Deterministic easy/hard interleaving (hard spread through the batch).

    Each hard query leads with one *easy* CTP: it finishes far under its
    cost-proportional share, so the ledger's execution-time grants to the
    hard CTPs behind it visibly exceed their build budgets (the
    ``rebalances`` counter in the report).
    """
    easy = [
        _query([((i + 1) % NUM_GROUPS, (i + 2) % NUM_GROUPS, EASY_MAX)])
        for i in range(num_easy)
    ]
    hard = [
        _query(
            [(i % NUM_GROUPS, (i + 1) % NUM_GROUPS, EASY_MAX)]
            + [
                ((i + j) % NUM_GROUPS, (i + j + 1) % NUM_GROUPS, HARD_MAX)
                for j in range(1, HARD_CTPS)
            ]
        )
        for i in range(num_hard)
    ]
    batch = list(easy)
    stride = max(1, len(batch) // (num_hard + 1))
    for i, text in enumerate(hard):
        batch.insert(min(len(batch), (i + 1) * stride + i), text)
    return batch


def _percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact for the small samples a bench has)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _drive(graph, batch: Sequence[str], config: SearchConfig, timeout: float):
    """Serially evaluate the batch; return (latencies, results)."""
    latencies: List[float] = []
    results = []
    for text in batch:
        started = time.perf_counter()
        result = evaluate_query(
            graph, text, ALGORITHM, base_config=config, default_timeout=timeout
        )
        latencies.append(time.perf_counter() - started)
        results.append(result)
    return latencies, results


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 30.0
    smoke = scale <= 0.25
    tips = 3 if smoke else 4
    # The hard queries' whole point is that each of their *hard* CTPs
    # alone exceeds this budget (~208ms at 3 tips, ~1s at 4, measured),
    # while the leading easy CTP (~30ms / ~130ms) finishes under its
    # cost-proportional share so the ledger has slack to rebalance.
    deadline = 0.15 if smoke else 0.5
    num_easy = max(6, round(16 * scale))
    num_hard = max(2, round(3 * scale))
    report = ExperimentReport(
        experiment="schedule",
        title="Cost-model scheduling: deadline tail latency, identity, auto mode",
        config={
            "scale": scale,
            "timeout": timeout,
            "repeats": repeats,
            "algorithm": ALGORITHM,
            "tips_per_group": tips,
            "deadline_s": deadline,
            "num_easy": num_easy,
            "num_hard": num_hard,
        },
    )
    graph = grouped_star(NUM_GROUPS, tips, ARM_LENGTH)
    batch = _mixed_batch(num_easy, num_hard)

    # --- deadline regime: serial dispatch, ledger off vs on -------------
    percentiles: Dict[bool, Dict[str, float]] = {}
    for scheduling in (False, True):
        config = SearchConfig(deadline=deadline, scheduling=scheduling)
        best: Optional[List[float]] = None
        rebalances = 0
        for _ in range(max(1, repeats)):
            latencies, results = _drive(graph, batch, config, timeout)
            if best is None or sum(latencies) < sum(best):
                best = latencies
                rebalances = sum(
                    r.schedule.rebalances for r in results if r.schedule is not None
                )
        assert best is not None
        stats = {
            "p50_ms": round(_percentile(best, 50) * 1000, 3),
            "p95_ms": round(_percentile(best, 95) * 1000, 3),
            "p99_ms": round(_percentile(best, 99) * 1000, 3),
        }
        percentiles[scheduling] = stats
        report.add(
            Measurement(
                params={"regime": "deadline", "scheduling": scheduling, "requests": len(batch)},
                seconds=sum(best),
                values={**stats, "rebalances": rebalances},
            )
        )
    p99_off = percentiles[False]["p99_ms"]
    p99_on = percentiles[True]["p99_ms"]
    report.add_row(
        regime="deadline-verdict",
        p99_off_ms=p99_off,
        p99_on_ms=p99_on,
        p99_speedup=round(p99_off / p99_on, 2) if p99_on else float("inf"),
        p99_not_worse=p99_on <= p99_off,
    )
    if p99_on > p99_off:
        report.note(
            f"TAIL-LATENCY FAILURE: p99 with scheduling on ({p99_on}ms) exceeds "
            f"off ({p99_off}ms) under a {deadline}s deadline"
        )

    # --- identity gate: no deadline, rows bit-identical to serial -------
    identity_batch = [batch[0], _query([(0, 1, EASY_MAX), (1, 2, EASY_MAX)])]
    identical = True
    for text in identity_batch:
        reference = evaluate_query(graph, text, ALGORITHM, default_timeout=timeout)
        for config in (
            SearchConfig(scheduling=True),
            SearchConfig(parallelism=2, scheduling=True),
            SearchConfig(parallelism=2, parallelism_mode="process", scheduling=True),
            SearchConfig(parallelism=2, parallelism_mode="auto"),
            SearchConfig(parallelism=2, parallelism_mode="auto", scheduling=True),
        ):
            result = evaluate_query(
                graph, text, ALGORITHM, base_config=config, default_timeout=timeout
            )
            if result.columns != reference.columns or result.rows != reference.rows:
                identical = False
    report.add_row(regime="identity", permutations=5 * len(identity_batch), identical=identical)
    if not identical:
        report.note("DETERMINISM FAILURE: scheduling permutation changed query rows")

    # --- auto mode: cheap queries stay serial, expensive ones fan out ---
    auto_config = SearchConfig(
        parallelism=2, parallelism_mode="auto", scheduling=True, deadline=deadline
    )
    selected: Dict[str, int] = {}
    _, results = _drive(graph, batch, auto_config, timeout)
    for result in results:
        if result.schedule is not None:
            mode = result.schedule.mode_selected
            selected[mode] = selected.get(mode, 0) + 1
    report.add_row(regime="auto", requests=len(batch), **{f"mode_{k}": v for k, v in sorted(selected.items())})
    return report
