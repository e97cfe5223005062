"""E-chaos — fault injection against the serving stack, recovery measured.

Not tied to a paper figure.  This is the robustness PR's evidence: a
long-lived :class:`~repro.serve.QueryServer` is driven through every
fault class :mod:`repro.faults` can inject — worker **crash** mid-CTP,
**hang** past the watchdog, **slow** returns, **rss** growth cured by
recycling, a deterministic **scorer** exception, and a
**corrupt_snapshot** handed to the worker initializer — plus a crash
**storm** across two worker generations, a pool that crashes **always**,
and an **overload** run that sheds low-priority traffic.

A failed fan-out runs inline and the next dispatch spawns fresh workers,
so each scenario reports recovery shape, not just survival:

* ``first_ok_ms`` — latency of the first successful request, which pays
  the failure (a dead worker or a watchdog expiry, then the inline run)
  on-path;
* ``steady_p50_ms`` — later requests, which must be back to normal;
* the resilience counters that fired (hangs, respawns, recycles) and the
  CTPs that ran inline.

With ``repeats`` above 1 each scenario runs that many times on a fresh
server: timings are medians over the runs, counts the worst run's.

Determinism gate: every ``ok`` response's rows are asserted bit-identical
to an inline evaluation of the same query (no pool) — the ``identical``
column must be true on every row of a checked-in JSON.  A fault may cost
latency or a typed error, never a silently wrong answer.

Fault plans are seeded and epoch-gated (``epochs=(0,)`` fires only in the
first worker generation), so recovery is *observable*: the replacement
workers are clean by construction, and the whole run reproduces
byte-for-byte under ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.bench.harness import ExperimentReport, Measurement
from repro.ctp.config import SearchConfig
from repro.faults import FaultPlan, FaultSpec
from repro.query.evaluator import evaluate_query
from repro.query.resilience import PoolResilienceConfig
from repro.serve import PRIORITY_LOW, QueryRequest, QueryServer
from repro.workloads.synthetic import grouped_star

#: Chaos scenarios run single-worker, single-client: the subject is the
#: recovery machinery, and one worker makes every fault's firing schedule
#: (per-process invocation counters) exactly reproducible.
CHAOS_WORKERS = 1
NUM_GROUPS = 5


def _serve_query(pair_a: Tuple[int, int], pair_b: Tuple[int, int], max_edges: int) -> str:
    """A 2-CTP EQL query connecting two seed-group pairs of ``grouped_star``.

    Two CTPs (not one) so the dispatch layer always has pooled work.
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


def _percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact for the small samples a bench has)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _stream(count: int) -> List[str]:
    """``count`` distinct 2-CTP queries (memo-proof, so every request
    really exercises the pooled dispatch path)."""
    pairs = [(i % NUM_GROUPS, (i + 1) % NUM_GROUPS) for i in range(count)]
    return [
        _serve_query(pair, ((pair[0] + 2) % NUM_GROUPS, (pair[1] + 2) % NUM_GROUPS), 6 + i % 2)
        for i, pair in enumerate(pairs)
    ]


def _run_scenario(
    graph: Any,
    texts: Sequence[str],
    plan: Optional[FaultPlan],
    serial_reference,
    request_timeout: Optional[float] = None,
    pool_config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Drive ``texts`` through a fresh server under ``plan``; summarize."""
    latencies_ok: List[float] = []
    statuses: List[str] = []
    modes: List[str] = []
    identical = True
    hangs = 0
    faults.install_plan(plan)
    try:
        with QueryServer(
            graph,
            base_config=SearchConfig(),
            workers=CHAOS_WORKERS,
            max_pending=4,
            default_timeout=30.0,
            pool_config=pool_config,
        ) as server:
            for text in texts:
                started = time.perf_counter()
                response = server.handle(QueryRequest(query=text, timeout=request_timeout))
                elapsed = time.perf_counter() - started
                statuses.append(response.status)
                if response.status == "ok":
                    latencies_ok.append(elapsed)
                    modes.extend(response.stats.dispatch_modes)
                    hangs += response.stats.hangs
                    columns, rows = serial_reference(text)
                    if response.columns != columns or response.rows != rows:
                        identical = False
            pool_stats = server.pool.stats()
    finally:
        faults.clear_plan()
    first_ok = latencies_ok[0] if latencies_ok else 0.0
    return {
        "ok": statuses.count("ok"),
        "typed_errors": statuses.count("error"),
        "first_ok_ms": round(first_ok * 1000, 3),
        "steady_p50_ms": round(_percentile(latencies_ok[1:], 50) * 1000, 3),
        "hangs": hangs,
        "respawns": pool_stats["respawns"],
        "recycles": pool_stats["recycles"],
        "degraded_ctps": sum(1 for mode in modes if mode.startswith("process->")),
        "identical": identical,
    }


def _combine(runs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One row from repeated runs of a scenario: ``*_ms`` values are
    medians, ``ok`` the fewest any run had, every other count the most,
    and ``identical`` holds only if it held in every run."""
    row: Dict[str, Any] = {}
    for key in runs[0]:
        values = [one[key] for one in runs]
        if key.endswith("_ms"):
            row[key] = round(statistics.median(values), 3)
        elif key == "identical":
            row[key] = all(values)
        elif key == "ok":
            row[key] = min(values)
        else:
            row[key] = max(values)
    return row


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 30.0
    requests = max(3, round(5 * scale))
    report = ExperimentReport(
        experiment="chaos",
        title="Fault injection: recovery latency and degradation under every fault class",
        config={
            "scale": scale,
            "timeout": timeout,
            "repeats": repeats,
            "workers": CHAOS_WORKERS,
            "requests_per_scenario": requests,
        },
    )

    graph = grouped_star(NUM_GROUPS, max(2, round(4 * scale)), 3)
    texts = _stream(requests)
    serial_rows: Dict[str, Tuple[Any, Any]] = {}

    def serial_reference(text: str):
        if text not in serial_rows:
            result = evaluate_query(graph, text, base_config=SearchConfig(), default_timeout=timeout)
            serial_rows[text] = (result.columns, result.rows)
        return serial_rows[text]

    # Every fault class, one scenario each.  Epoch gating (``epochs=(0,)``)
    # confines the fault to the first worker generation: recovery replaces
    # the workers, so the *same* plan proves both the failure and the cure.
    scenarios: List[Tuple[str, Dict[str, Any]]] = [
        ("baseline", dict(plan=None)),
        # First CTP run crashes the worker (os._exit): BrokenProcessPool ->
        # the fan-out runs inline, and the next request spawns clean
        # epoch-1 workers.
        ("crash", dict(plan=FaultPlan(specs=(FaultSpec.crash(at=(0,), epochs=(0,)),)))),
        # First CTP run sleeps far past the watchdog: the per-submit budget
        # (2 jobs x 0.8s timeout + 0.4s grace) expires, the wedged worker is
        # killed, and the request runs inline.
        (
            "hang",
            dict(
                plan=FaultPlan(specs=(FaultSpec.hang(seconds=30.0, at=(0,), epochs=(0,)),)),
                request_timeout=0.8,
                pool_config={"resilience": PoolResilienceConfig(hang_grace=0.4)},
            ),
        ),
        # Every epoch-0 run returns 50ms late: no failure, pure latency.
        ("slow", dict(plan=FaultPlan(specs=(FaultSpec.slow(seconds=0.05, every=1, epochs=(0,)),)))),
        # Every run retains 32 MiB of ballast; the RSS check (sampled every
        # dispatch) recycles the bloated worker between queries.
        (
            "rss",
            dict(
                plan=FaultPlan(specs=(FaultSpec.rss(grow_mb=32.0, every=1),)),
                pool_config={
                    "resilience": PoolResilienceConfig(max_worker_rss_mb=64.0, rss_check_every=1)
                },
            ),
        ),
        # First CTP run raises a deterministic user-code error: NOT re-run
        # (it would raise identically), surfaces as one typed STATUS_ERROR.
        ("scorer", dict(plan=FaultPlan(specs=(FaultSpec.scorer(at=(0,), epochs=(0,)),)))),
        # The epoch-0 worker initializer loads a truncated snapshot copy and
        # dies on the format's real validation; the request runs inline and
        # the next one spawns workers that load clean.
        (
            "corrupt_snapshot",
            dict(plan=FaultPlan(specs=(FaultSpec.corrupt_snapshot(at=(0,), epochs=(0,)),))),
        ),
        # Crash storm across two worker generations: the first two requests
        # run inline, the third finds clean epoch-2 workers.
        ("crash_storm", dict(plan=FaultPlan(specs=(FaultSpec.crash(every=1, epochs=(0, 1)),)))),
        # Every worker generation crashes: what a persistently failing pool
        # costs — one spawn attempt and an inline run per request, rows
        # still identical.
        ("crash_always", dict(plan=FaultPlan(specs=(FaultSpec.crash(every=1),)))),
    ]

    repeats = max(1, repeats)
    for name, kwargs in scenarios:
        started = time.perf_counter()
        runs = [
            _run_scenario(graph, texts, serial_reference=serial_reference, **kwargs)
            for _ in range(repeats)
        ]
        values = _combine(runs)
        report.add(
            Measurement(
                params={"scenario": name, "requests": requests},
                seconds=(time.perf_counter() - started) / repeats,
                values=values,
            )
        )
        if not values["identical"]:
            report.note(f"DETERMINISM FAILURE: scenario {name!r} returned rows != serial dispatch")

    # --- overload: low-priority work shed while slow requests dwell ------
    shed_values = _overload_scenario(graph, serial_reference)
    started = time.perf_counter()
    report.add(
        Measurement(
            params={"scenario": "overload", "requests": shed_values.pop("requests")},
            seconds=time.perf_counter() - started + shed_values.pop("wall_seconds"),
            values=shed_values,
        )
    )

    report.note(
        "each fault scenario drives a fresh single-worker QueryServer through the same "
        "distinct-query stream under a seeded, epoch-gated FaultPlan; first_ok_ms is the "
        "recovery latency (the first successful request pays the crash or watchdog and "
        "the inline run on-path), steady_p50_ms the post-recovery median; with repeats "
        "> 1 time_ms is the mean run, the other *_ms columns are medians over runs and "
        "the counts the worst run's"
    )
    report.note(
        "identical = every ok response's rows bit-equal to an inline evaluation (no pool); "
        "a fault may cost latency or a typed error (scorer: typed_errors=1), "
        "never a silently wrong answer"
    )
    report.note(
        "overload drives concurrent slow normal-priority requests while low-priority "
        "requests arrive: past shed_threshold the low-priority ones get STATUS_SHED "
        "immediately, and a low-priority request after the load clears is served"
    )
    return report


def _overload_scenario(graph: Any, serial_reference) -> Dict[str, Any]:
    """Priority load shedding under synthetic pressure, summarized."""
    text = _serve_query((0, 1), (2, 3), 6)
    plan = FaultPlan(specs=(FaultSpec.slow(seconds=0.25, every=1),))
    faults.install_plan(plan)
    wall_started = time.perf_counter()
    shed = ok = rejected = 0
    low_after_load_ok = False
    identical = True
    try:
        with QueryServer(
            graph,
            base_config=SearchConfig(),
            workers=CHAOS_WORKERS,
            max_pending=3,
            shed_threshold=1,
            default_timeout=30.0,
        ) as server:

            def normal_one(query_text: str) -> str:
                return server.handle(QueryRequest(query=query_text)).status

            with ThreadPoolExecutor(max_workers=2, thread_name_prefix="repro-chaos") as load:
                futures = [load.submit(normal_one, text) for _ in range(2)]
                time.sleep(0.1)  # let the slow normal requests occupy the gauge
                for _ in range(3):
                    status = server.handle(QueryRequest(query=text, priority=PRIORITY_LOW)).status
                    shed += status == "shed"
                    rejected += status == "rejected"
                statuses = [future.result() for future in futures]
            ok += statuses.count("ok")
            # Load gone: the same low-priority request must now be served.
            response = server.handle(QueryRequest(query=text, priority=PRIORITY_LOW))
            low_after_load_ok = response.status == "ok"
            ok += low_after_load_ok
            if low_after_load_ok:
                columns, rows = serial_reference(text)
                identical = response.columns == columns and response.rows == rows
            server_shed = server.shed
    finally:
        faults.clear_plan()
    return {
        "requests": 6,
        "wall_seconds": time.perf_counter() - wall_started,
        "ok": ok,
        "shed": shed,
        "rejected": rejected,
        "server_shed_counter": server_shed,
        "low_after_load_ok": low_after_load_ok,
        "identical": identical,
    }
