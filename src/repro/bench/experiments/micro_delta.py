"""E-delta — serving under live ingest: delta overlay vs resnapshot-per-mutation.

Not tied to a paper figure.  This is the load generator for the MVCC
PR's claim: before, any mutation between dispatches forced the worker
pool to re-snapshot the whole graph and have every worker re-mmap it —
a *mutating* serving workload (ingest interleaved with queries) paid the
full freeze on every write.  The delta overlay ships only the mutations
since the frozen base to the warm workers, and the pool re-snapshots
only when the accumulated delta crosses the compaction threshold.

Three regimes drive the same query stream through one prewarmed
:class:`~repro.serve.QueryServer` (process dispatch):

* ``static`` — no writes at all: the floor every other regime is
  compared against (``p50_vs_static``).
* ``mutate-legacy`` — an ingest batch lands before every round, with
  ``compaction_threshold=0``: any mutation compacts (and therefore
  re-snapshots + re-mmaps) at the next dispatch boundary — the pre-MVCC
  cost model.
* ``mutate-delta`` — the same ingest schedule with a real threshold:
  mutations ride the picklable delta to the existing workers and only a
  threshold crossing pays a compaction.

Correctness gate: after every ingest round, the server's rows for each
query are asserted bit-identical to a fresh ``evaluate_query`` over a
full ``graph.freeze()`` at that generation — the ``identical`` column
must be true on every row of a checked-in JSON, and ``resnapshots``
must equal ``compactions`` in the delta regime (re-snapshots happen at
compaction events only).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentReport, Measurement
from repro.ctp.config import SearchConfig
from repro.query.evaluator import evaluate_query
from repro.serve import IngestRequest, QueryRequest, QueryServer
from repro.workloads.synthetic import grouped_star

NUM_GROUPS = 5
#: Delta mutations tolerated before the pool compacts (delta regime).
DELTA_THRESHOLD = 8


def _delta_query(pair_a: Tuple[int, int], pair_b: Tuple[int, int], max_edges: int) -> str:
    """A 2-CTP EQL query over two seed-group pairs (cf. E-serve)."""
    (a1, a2), (b1, b2) = pair_a, pair_b
    return f"""
    SELECT ?w0 ?w1 WHERE {{
      FILTER(type(?x) = "g{a1}")
      FILTER(type(?y) = "g{a2}")
      FILTER(type(?u) = "g{b1}")
      FILTER(type(?v) = "g{b2}")
      CONNECT(?x, ?y) AS ?w0 MAX {max_edges}
      CONNECT(?u, ?v) AS ?w1 MAX {max_edges}
    }}
    """


def _query_stream(count: int) -> List[str]:
    """``count`` pairwise-distinct queries — memo-proof latency samples."""
    pairs = list(permutations(range(NUM_GROUPS), 2))
    combos = [
        (pairs[i], pairs[(i + offset) % len(pairs)], 6 + (i + offset) % 2)
        for offset in range(1, len(pairs))
        for i in range(len(pairs))
    ]
    if count > len(combos):
        raise ValueError(f"stream of {count} exceeds {len(combos)} distinct queries")
    return [_delta_query(*combo) for combo in combos[:count]]


def _ingest_batch(graph, round_index: int) -> IngestRequest:
    """A small write batch: one new typed tip wired into the star.

    The tip carries a rotating seed-group type, so round N's queries over
    that group genuinely see the new node — the equivalence gate fails if
    a stale view ever leaks through.
    """
    group = round_index % NUM_GROUPS
    hub = 0  # grouped_star's center node
    new_id = graph.num_nodes
    return IngestRequest(
        nodes=((f"D{round_index}", f"g{group}"),),
        edges=((hub, new_id, "e", 1.0),),
        weights=((round_index % max(1, graph.num_edges), 1.0 + 0.25 * (round_index % 3)),),
    )


def _percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact for the small samples a bench has)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _drive(clients: int, texts: Sequence[str], handle_one) -> Tuple[List[float], float]:
    """Run the stream through ``handle_one`` from N client threads."""

    def timed(text: str) -> float:
        started = time.perf_counter()
        handle_one(text)
        return time.perf_counter() - started

    wall_started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients, thread_name_prefix="repro-load") as pool:
        latencies = list(pool.map(timed, texts))
    return latencies, time.perf_counter() - wall_started


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 30.0
    workers = os.cpu_count() or 1
    clients = 2 if scale <= 0.25 else 4
    rounds = max(3, round(6 * scale))
    per_round = max(2, round(4 * scale)) * max(1, repeats)
    report = ExperimentReport(
        experiment="delta",
        title="Delta-overlay MVCC: serving under live ingest vs resnapshot-per-mutation",
        config={
            "scale": scale,
            "timeout": timeout,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "pool_workers": workers,
            "clients": clients,
            "rounds": rounds,
            "requests_per_round": per_round,
            "delta_compaction_threshold": DELTA_THRESHOLD,
        },
    )

    tips = max(2, round(4 * scale))
    process_config = SearchConfig(parallelism=2)
    regimes = (
        ("static", None, False),
        ("mutate-legacy", 0, True),
        ("mutate-delta", DELTA_THRESHOLD, True),
    )
    static_p50 = None
    for regime, threshold, mutate in regimes:
        graph = grouped_star(NUM_GROUPS, tips, 3)
        stream = _query_stream(rounds * per_round)
        latencies: List[float] = []
        wall = 0.0
        identical = True
        generations = set()
        with QueryServer(
            graph,
            base_config=process_config,
            workers=workers,
            max_pending=max(8, clients),
            default_timeout=timeout,
            compaction_threshold=threshold if threshold is not None else 256,
        ) as server:
            server.prewarm()

            def warm_one(text: str) -> None:
                nonlocal identical
                response = server.handle(QueryRequest(query=text))
                if response.status != "ok":
                    raise RuntimeError(f"request failed: {response.error}")
                generations.add(response.stats.generation)
                fresh = evaluate_query(
                    graph.freeze(),
                    text,
                    base_config=SearchConfig(),
                    default_timeout=timeout,
                )
                if response.columns != fresh.columns or response.rows != fresh.rows:
                    identical = False

            for round_index in range(rounds):
                if mutate:
                    result = server.ingest(_ingest_batch(graph, round_index))
                    if not result.ok:
                        raise RuntimeError(f"ingest failed: {result.error}")
                chunk = stream[round_index * per_round : (round_index + 1) * per_round]
                lat, seconds = _drive(clients, chunk, warm_one)
                latencies.extend(lat)
                wall += seconds
            pool_stats = server.pool.stats()
            final_generation = server.stats()["generation"]
        p50 = _percentile(latencies, 50)
        if regime == "static":
            static_p50 = p50
        total = rounds * per_round
        report.add(
            Measurement(
                params={"regime": regime, "clients": clients, "requests": total},
                seconds=wall,
                values={
                    "p50_ms": round(p50 * 1000, 3),
                    "p99_ms": round(_percentile(latencies, 99) * 1000, 3),
                    "qps": round(total / wall, 2) if wall else float("inf"),
                    "p50_vs_static": (
                        round(p50 / static_p50, 2) if static_p50 else float("inf")
                    ),
                    "resnapshots": pool_stats["resnapshots"],
                    "compactions": pool_stats["compactions"],
                    "resnapshots_avoided": pool_stats["resnapshots_avoided"],
                    "resnapshot_thrash": pool_stats["resnapshot_thrash"],
                    "final_delta_size": pool_stats["delta_size"],
                    "final_generation": final_generation,
                    "generations_served": len(generations),
                    "identical": identical,
                },
            )
        )
        if not identical:
            report.note(
                f"CONSISTENCY FAILURE: {regime} rows differ from a fresh full "
                f"freeze at the response's generation"
            )

    report.note(
        "static = no writes (the latency floor); mutate-legacy = an ingest batch "
        "before every round with compaction_threshold=0, so every mutation compacts "
        "and re-snapshots at the next dispatch boundary (the pre-MVCC cost model); "
        "mutate-delta = the same schedule with a real threshold — mutations ride the "
        "picklable delta overlay to the warm workers"
    )
    report.note(
        "identical = every response's rows bit-equal to evaluate_query over a fresh "
        "full graph.freeze() at that response's generation; in mutate-delta, "
        "resnapshots equals compactions (re-snapshots happen only at compaction "
        "events), and the claim under test is p50_vs_static <= 2.0"
    )
    return report
