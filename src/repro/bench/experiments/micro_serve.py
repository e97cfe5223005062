"""E-serve — the long-lived query server vs per-query cold dispatch.

Not tied to a paper figure.  This is the load generator for the PR's
amortization claim: before, every ``evaluate_query`` in process mode
built a ``ProcessPoolExecutor``, had each worker load the snapshot, ran
one query, and tore everything down — so a *serving* workload (many
queries, one graph: Section 5's investigation sessions) paid spin-up on
every request.  The persistent :class:`~repro.query.pool.WorkerPool`
behind :class:`~repro.serve.QueryServer` pays it once.

The generator drives the same request stream through both paths at N
concurrent client threads and reports per-request latency percentiles
plus throughput:

* ``cold`` — the pre-fix behaviour: each request is an independent
  ``evaluate_query`` with ``parallelism_mode="process"``, building and
  discarding its own executor (workers re-spawn and re-load the snapshot
  every time).
* ``warm`` — the same requests through one prewarmed ``QueryServer``
  (persistent pool + shared cross-request context).

Regimes:

* ``distinct`` — every request is a *different* 2-CTP query (different
  seed-group pairs and ``MAX`` bounds), so the cross-request memo cannot
  serve any of them: the warm/cold gap isolates pure pool amortization
  (spawn + per-worker snapshot load), which exists on any host — it is
  overhead elimination, not multi-core speedup, so single-core CI shows
  it too.
* ``repeated`` — every request is the *same* query: warm adds the
  cross-request memo on top (requests after the first are served without
  any search), the best case a serving deployment sees.

Determinism gate: every distinct warm response's rows are asserted
bit-identical to serial dispatch (``parallelism=1``, no pool) — the
``identical`` column must be true on every row of a checked-in JSON.
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
from repro.serve import QueryRequest, QueryServer
from repro.workloads.synthetic import grouped_star

#: Concurrent client threads per measured point (smoke keeps the first two).
CLIENT_COUNTS = (1, 2, 4)
SMOKE_CLIENT_COUNTS = (1, 2)
NUM_GROUPS = 5


def _serve_query(pair_a: Tuple[int, int], pair_b: Tuple[int, int], max_edges: int) -> str:
    """A 2-CTP EQL query connecting two disjoint-ish seed-group pairs.

    Two CTPs (not one) so the dispatch layer always has parallel work —
    a single-job query collapses to serial in the cold path and would
    measure nothing.
    """
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
    """``count`` pairwise-distinct queries (distinct seeds and/or MAX)."""
    pairs = list(permutations(range(NUM_GROUPS), 2))  # 20 ordered pairs
    combos = [
        (pairs[i], pairs[(i + offset) % len(pairs)], 6 + (i + offset) % 2)
        for offset in range(1, len(pairs))
        for i in range(len(pairs))
    ]
    if count > len(combos):
        raise ValueError(f"stream of {count} exceeds {len(combos)} distinct queries")
    return [_serve_query(*combo) for combo in combos[:count]]


def _percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact for the small samples a bench has)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _drive(clients: int, texts: Sequence[str], handle_one) -> Tuple[List[float], float]:
    """Run the stream through ``handle_one`` from N client threads.

    Returns (per-request latencies, wall seconds).  Latencies are measured
    client-side so cold and warm pay for exactly the same span (dispatch,
    evaluation, response assembly).
    """

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
    client_counts = SMOKE_CLIENT_COUNTS if scale <= 0.25 else CLIENT_COUNTS
    per_client = max(2, round(4 * scale))
    report = ExperimentReport(
        experiment="serve",
        title="Long-lived query server: persistent pool vs per-query cold dispatch",
        config={
            "scale": scale,
            "timeout": timeout,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "pool_workers": workers,
            "requests_per_client": per_client,
        },
    )

    tips = max(2, round(4 * scale))
    graph = grouped_star(NUM_GROUPS, tips, 3)
    process_config = SearchConfig(parallelism=2, parallelism_mode="process")

    def cold_one(text: str) -> None:
        # The pre-fix path: per-call executor, workers spawn + load the
        # snapshot, evaluate, tear down.  Fresh per-query context — cold
        # shares nothing across requests, by definition.
        evaluate_query(graph, text, base_config=process_config, default_timeout=timeout)

    serial_rows = {}

    def serial_reference(text: str):
        if text not in serial_rows:
            result = evaluate_query(
                graph, text, base_config=SearchConfig(), default_timeout=timeout
            )
            serial_rows[text] = (result.columns, result.rows)
        return serial_rows[text]

    # --- distinct regime: memo-proof stream, pure pool amortization -----
    passes = max(1, repeats)
    for clients in client_counts:
        total = clients * per_client
        stream = _query_stream(total * passes)
        cold_lat: List[float] = []
        warm_lat: List[float] = []
        cold_wall = warm_wall = float("inf")
        identical = True
        with QueryServer(
            graph,
            base_config=process_config,
            workers=workers,
            max_pending=max(8, clients),
            default_timeout=timeout,
        ) as server:
            server.prewarm()  # deployment pays the cold cost off-path once

            def warm_one(text: str) -> None:
                nonlocal identical
                response = server.handle(QueryRequest(query=text))
                if response.status != "ok":
                    raise RuntimeError(f"warm request failed: {response.error}")
                columns, rows = serial_reference(text)
                if response.columns != columns or response.rows != rows:
                    identical = False

            for pass_index in range(passes):
                chunk = stream[pass_index * total : (pass_index + 1) * total]
                lat, wall = _drive(clients, chunk, cold_one)
                cold_lat.extend(lat)
                cold_wall = min(cold_wall, wall)
                lat, wall = _drive(clients, chunk, warm_one)
                warm_lat.extend(lat)
                warm_wall = min(warm_wall, wall)
            pool_stats = server.pool.stats()
        warm_p50 = _percentile(warm_lat, 50)
        cold_p50 = _percentile(cold_lat, 50)
        report.add(
            Measurement(
                params={"regime": "distinct", "clients": clients, "requests": total},
                seconds=warm_wall,
                values={
                    "cold_p50_ms": round(cold_p50 * 1000, 3),
                    "cold_p99_ms": round(_percentile(cold_lat, 99) * 1000, 3),
                    "cold_qps": round(total / cold_wall, 2) if cold_wall else float("inf"),
                    "warm_p50_ms": round(warm_p50 * 1000, 3),
                    "warm_p99_ms": round(_percentile(warm_lat, 99) * 1000, 3),
                    "warm_qps": round(total / warm_wall, 2) if warm_wall else float("inf"),
                    "p50_speedup": round(cold_p50 / warm_p50, 2) if warm_p50 else float("inf"),
                    "wall_speedup": round(cold_wall / warm_wall, 2) if warm_wall else float("inf"),
                    "pool_respawns": pool_stats["respawns"],
                    "identical": identical,
                },
            )
        )
        if not identical:
            report.note(
                f"DETERMINISM FAILURE: warm rows differ from serial dispatch at "
                f"{clients} client(s)"
            )

    # --- repeated regime: same query, memo on top of the warm pool ------
    repeated_clients = client_counts[-1]
    total = repeated_clients * per_client
    text = _serve_query((0, 1), (2, 3), 6)
    with QueryServer(
        graph,
        base_config=process_config,
        workers=workers,
        max_pending=max(8, repeated_clients),
        default_timeout=timeout,
    ) as server:
        server.prewarm()
        memo_hits = 0

        def warm_repeated(query_text: str) -> None:
            nonlocal memo_hits
            response = server.handle(QueryRequest(query=query_text))
            if response.status != "ok":
                raise RuntimeError(f"warm request failed: {response.error}")
            memo_hits += response.stats.memo_hits

        cold_lat, cold_wall = _drive(repeated_clients, [text] * total, cold_one)
        warm_lat, warm_wall = _drive(repeated_clients, [text] * total, warm_repeated)
    warm_p50 = _percentile(warm_lat, 50)
    cold_p50 = _percentile(cold_lat, 50)
    columns, rows = serial_reference(text)
    last = evaluate_query(graph, text, base_config=SearchConfig(), default_timeout=timeout)
    report.add(
        Measurement(
            params={"regime": "repeated", "clients": repeated_clients, "requests": total},
            seconds=warm_wall,
            values={
                "cold_p50_ms": round(cold_p50 * 1000, 3),
                "cold_qps": round(total / cold_wall, 2) if cold_wall else float("inf"),
                "warm_p50_ms": round(warm_p50 * 1000, 3),
                "warm_qps": round(total / warm_wall, 2) if warm_wall else float("inf"),
                "p50_speedup": round(cold_p50 / warm_p50, 2) if warm_p50 else float("inf"),
                "memo_served_ctps": memo_hits,
                "identical": last.columns == columns and last.rows == rows,
            },
        )
    )

    report.note(
        "cold = per-request evaluate_query(parallelism_mode='process'): every request "
        "builds a ProcessPoolExecutor, spawns workers, loads the snapshot per worker, "
        "and tears it all down (the pre-WorkerPool behaviour); warm = the same requests "
        "through one prewarmed QueryServer over a persistent WorkerPool"
    )
    report.note(
        "the distinct regime's warm/cold gap is eliminated spin-up overhead, not "
        "parallel speedup — it holds on a single-core host (see cpu_count); the "
        "repeated regime adds the shared cross-request memo, so warm requests after "
        "the first run no search at all"
    )
    report.note(
        "identical = warm server rows bit-equal to serial dispatch (parallelism=1, "
        "no pool) for every query of the stream; latencies are client-side "
        "(nearest-rank percentiles), throughput = requests / wall seconds"
    )
    return report
