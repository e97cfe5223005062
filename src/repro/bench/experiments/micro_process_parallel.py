"""E-process-parallel — process-pool CTP dispatch over mmap-shared snapshots.

Not tied to a paper figure.  A/Bs ``SearchConfig(parallelism_mode="process")``
— a ``ProcessPoolExecutor`` whose workers each load the graph **once** from
an mmap-shared binary CSR snapshot (:mod:`repro.graph.snapshot`) and run
CTP jobs against a worker-private context — against serial dispatch and
the PR-4 thread pool, end-to-end through
:func:`repro.query.evaluator.evaluate_query`.

Regimes:

* ``complete`` — a 4-CTP query whose searches run to completion: the
  CPU-bound regime where the thread pool measured ~0.9x under the GIL
  (see ``BENCH_parallel.json``).  Process workers are separate
  interpreters, so with W cores this is where real multi-core speedup
  appears; on a single-core host the workers timeshare one core and the
  row honestly measures dispatch+snapshot overhead instead (the
  ``cpu_count`` config field says which regime a checked-in JSON ran in).
  Rows MUST be identical to serial at every worker count (column
  ``identical``) — this is the determinism gate, and it holds on any
  hardware.
* ``deadline`` — a 4-CTP query where every CTP exhausts its per-CTP
  ``TIMEOUT`` (the paper's ``T``).  Deadlines are wall-clock budgets, so m
  worker processes overlap them exactly like the thread pool does
  (serial ~4T vs 4 workers ~T) — the bounded-latency serving regime, and
  a genuine >1.5x at 4 workers on any interpreter or core count.
* ``snapshot`` — the infrastructure cost: snapshot file size, one-time
  save, and per-worker load, mmap vs full materialization.  The mmap load
  is O(metadata) — adjacency pages fault in on demand and are shared
  between workers — which is what makes load-once-per-worker cheap.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.bench.experiments.micro_parallel import (
    _best_of,
    _fan_query,
    _overlap_query,
    _rows_identical,
    _typed_expander,
)
from repro.bench.harness import ExperimentReport, Measurement
from repro.ctp.config import SearchConfig
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.query.evaluator import QueryResult, evaluate_query
from repro.query.scoring import get_score_function
from repro.workloads.synthetic import grouped_star

PROCESS_WORKER_COUNTS = (1, 2, 4)


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    timeout = timeout if timeout is not None else 60.0
    report = ExperimentReport(
        experiment="process-parallel",
        title="Process-pool CTP dispatch over mmap-shared CSR snapshots",
        config={
            "scale": scale,
            "timeout": timeout,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
        },
    )

    # --- complete regime: CPU-bound searches run to completion ----------
    tips = max(2, round(4 * scale))
    star = grouped_star(5, tips, 3)
    complete_query = _overlap_query(4)

    def eval_star(parallelism: int, mode: str) -> QueryResult:
        return evaluate_query(
            star,
            complete_query,
            base_config=SearchConfig(parallelism=parallelism, parallelism_mode=mode),
            default_timeout=timeout,
        )

    serial_s, serial_result = _best_of(lambda: eval_star(1, "thread"), repeats)
    thread_s, _ = _best_of(lambda: eval_star(4, "thread"), repeats)
    for workers in PROCESS_WORKER_COUNTS:
        proc_s, proc_result = _best_of(lambda: eval_star(workers, "process"), repeats)
        identical = _rows_identical(serial_result, proc_result)
        report.add(
            Measurement(
                params={"regime": "complete", "workload": "overlap-4ctp", "workers": workers},
                seconds=proc_s,
                values={
                    "serial_ms": round(serial_s * 1000, 3),
                    "thread4_ms": round(thread_s * 1000, 3),
                    "process_ms": round(proc_s * 1000, 3),
                    "speedup_vs_serial": round(serial_s / proc_s, 2) if proc_s else float("inf"),
                    "speedup_vs_thread4": round(thread_s / proc_s, 2) if proc_s else float("inf"),
                    "rows": len(proc_result),
                    "identical": identical,
                },
            )
        )
        if not identical:
            report.note(
                f"DETERMINISM FAILURE: complete-regime rows differ at {workers} process workers"
            )

    # --- deadline regime: every CTP exhausts its wall-clock budget ------
    ctp_timeout = max(0.05, 0.15 * scale)
    expander = _typed_expander(
        num_groups=8,
        nodes_per_group=max(2, round(4 * scale)),
        spokes=3,
        extra_edges=3,
    )
    deadline_query = _fan_query(4)
    deadline_config = dict(
        score=get_score_function("size"),
        top_k=2,  # keeps the final join tiny; the search still runs full T
    )

    def eval_deadline(parallelism: int, mode: str) -> QueryResult:
        return evaluate_query(
            expander,
            deadline_query,
            base_config=SearchConfig(
                parallelism=parallelism, parallelism_mode=mode, **deadline_config
            ),
            default_timeout=ctp_timeout,
        )

    serial_s, serial_result = _best_of(lambda: eval_deadline(1, "thread"), repeats)
    timed_out = sum(1 for r in serial_result.ctp_reports if r.result_set.timed_out)
    for workers in (2, 4):
        proc_s, proc_result = _best_of(lambda: eval_deadline(workers, "process"), repeats)
        report.add(
            Measurement(
                params={"regime": "deadline", "workload": "fan-4ctp-timeout", "workers": workers},
                seconds=proc_s,
                values={
                    "serial_ms": round(serial_s * 1000, 3),
                    "process_ms": round(proc_s * 1000, 3),
                    "speedup_vs_serial": round(serial_s / proc_s, 2) if proc_s else float("inf"),
                    "rows": len(proc_result),
                    "identical": "n/a (timeout-truncated)",
                    "ctps_timed_out": sum(
                        1 for r in proc_result.ctp_reports if r.result_set.timed_out
                    ),
                },
            )
        )
    if timed_out < 4:
        report.note(
            f"deadline regime under-saturated: only {timed_out}/4 serial CTPs timed out "
            "(raise scale so every CTP exhausts its budget)"
        )

    # --- snapshot regime: serialization + per-worker load costs ---------
    import tempfile

    frozen = expander.freeze()
    fd, snap_path = tempfile.mkstemp(prefix="repro-bench-", suffix=".snapshot")
    os.close(fd)
    try:
        save_s, _ = _best_of(lambda: save_snapshot(frozen, snap_path), repeats)
        mmap_s, mmap_graph = _best_of(lambda: load_snapshot(snap_path, use_mmap=True), repeats)
        full_s, _ = _best_of(lambda: load_snapshot(snap_path, use_mmap=False), repeats)
        # Touch the loaded graph so the row proves the mapping works.
        sweep_started = time.perf_counter()
        touched = sum(mmap_graph.degree(n) for n in mmap_graph.node_ids())
        sweep_s = time.perf_counter() - sweep_started
        report.add(
            Measurement(
                params={"regime": "snapshot", "workload": "fan-4ctp-timeout", "workers": 1},
                seconds=mmap_s,
                values={
                    "file_bytes": os.path.getsize(snap_path),
                    "save_ms": round(save_s * 1000, 3),
                    "mmap_load_ms": round(mmap_s * 1000, 3),
                    "full_load_ms": round(full_s * 1000, 3),
                    "degree_sweep_ms": round(sweep_s * 1000, 3),
                    "identical": touched == sum(frozen.degree(n) for n in frozen.node_ids()),
                },
            )
        )
    finally:
        os.unlink(snap_path)

    report.note(
        "speedup_vs_serial = serial_ms / process_ms; serial is SearchConfig(parallelism=1), "
        "process dispatches the query's CTPs to a ProcessPoolExecutor whose workers each "
        "load the graph once from an mmap-shared CSR snapshot and search on a private "
        "SearchContext; the parent serves/files its cross-CTP memo in CTP order"
    )
    report.note(
        "complete regime: searches finish, so rows are asserted identical to serial at "
        "every worker count; real speedup here needs >1 core (workers are separate "
        "interpreters — no GIL sharing, unlike the thread pool's ~0.9x), see the "
        "cpu_count config field for what this host offered"
    )
    report.note(
        "deadline regime: every CTP exhausts its per-CTP TIMEOUT and timeouts are "
        "wall-clock budgets, so worker processes overlap them (serial ~4T vs 4 workers "
        "~T) on any host; timed-out result sets depend on CPU share, hence no "
        "row-identity check"
    )
    report.note(
        "snapshot regime: mmap load is O(metadata) — the adjacency columns are "
        "memoryview casts over a shared read-only mapping, faulted in on demand and "
        "shared between every worker mapping the same file"
    )
    return report
