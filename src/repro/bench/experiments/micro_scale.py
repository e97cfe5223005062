"""E-scale — search-local node ids at a million nodes.

Not tied to a paper figure.  A search keys its node masks and memos by the
nodes and edges it *touches* (:class:`~repro.ctp.idremap.IdRemap`, the flat
:class:`~repro.ctp.interning.EdgeSetPool`), so its cost follows the CTP's
radius-2 neighbourhood — a few hundred nodes — no matter how large the
graph is.  The implementation this replaced keyed both by *global* ids
(one mask bit per node id: ~125 KB of bigint per tree at 10^6 nodes) and
added 42 MB / 256 MB of search-phase peak RSS at 10^5 / 10^6 nodes where
this one adds 0-6 MB, for identical rows.

The bench builds one seeded scale-free graph per size (10^5 warm-up and
the headline 10^6), samples a tight-radius m=2 CTP batch
(:func:`~repro.workloads.realworld.scale_workload`), and runs a complete
(BFT) and a heuristic (MoLESP) engine over it, measuring wall-clock and
peak RSS.  Two properties are asserted as verdict rows the CI gate reads
from the checked-in JSON, next to "no size may DNF":

* ``identity`` — per size, the canonical result rows hash to the digest
  recorded in :data:`RECORDED_DIGESTS` on every repeat (``identical``
  must be true).  The constants were recorded from the global-id
  implementation before it was deleted, when both produced them: the
  remap is an implementation detail, not a semantics change.
* ``rss-ceiling`` — the search-phase peak-RSS growth
  (``search_peak_delta_mb``, worst repeat) stays under
  :data:`DENSE_SEARCH_RSS_CEILING_MB`.

Each (size, repeat) cell runs in a **subprocess** because ``ru_maxrss`` is
a lifetime high-water mark: two cells sharing a process would share one
peak.  The child reports peak RSS after build and after search separately,
so ``search_peak_delta_mb`` isolates what the *search* adds over the graph
itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from statistics import median
from typing import Any, Dict, List, Optional

from repro.bench.harness import ExperimentReport, Measurement

#: Engines under test: one complete enumerator, one heuristic.
ALGORITHMS = ("bft", "molesp")
#: Deterministic bounds: preferential-attachment hubs make unbounded
#: complete enumeration explode, and count-based cuts (result limit +
#: expansion cap) are order-stable, so rows are reproducible.
MAX_EDGES = 4
LIMIT = 8
MAX_TREES = 4_000
NUM_CTPS = 6
SEED = 42
#: SHA-256 of the canonical rows per graph size, as produced by the
#: global-id-mask implementation (at the commit that deleted it) — and by
#: this one.
RECORDED_DIGESTS = {
    10_000: "273e3e36c7232c9022ded1679dd22575f9dd6cfcc6f321a27d73dd4d77afa157",
    100_000: "2b20c912b71e5cd5eef9e10525cacbddab1dcbeaa3b331e5d737bd6093035037",
    1_000_000: "f0b1f8334637dab3c4a86e61d8f37505a968e874f5d409da031e985f31775913",
}
#: Ceiling on what the *search* phase may add over the built graph (MB).
#: Measured: 6.2 / 3.2 / 0.0 MB at 10^4 / 10^5 / 10^6 nodes (the page
#: granularity of a few hundred small objects).  32 MB leaves ~25 MB of
#: slack for allocator noise, and a global-id-sized mask regression (42 MB
#: at 10^5, 256 MB at 10^6) cannot fit under it.
DENSE_SEARCH_RSS_CEILING_MB = 32.0


def _canonical_rows(result_set) -> List[tuple]:
    return sorted(
        (
            tuple(sorted(r.edges)),
            tuple(sorted(r.nodes)),
            r.seeds,
            round(r.weight, 9),
            r.score,
        )
        for r in result_set
    )


def _child_main(nodes: int) -> None:
    """One cell: build, search, print a JSON line."""
    import resource
    import time

    from repro.ctp.config import SearchConfig
    from repro.ctp.registry import get_algorithm
    from repro.workloads.realworld import scale_workload

    def peak_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def rss_mb() -> float:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    started = time.perf_counter()
    graph, ctps = scale_workload(nodes, seed=SEED, num_ctps=NUM_CTPS)
    build_seconds = time.perf_counter() - started
    rss_build = rss_mb()
    peak_build = peak_mb()

    config = SearchConfig(max_edges=MAX_EDGES, limit=LIMIT, max_trees=MAX_TREES)
    digest = hashlib.sha256()
    rows = 0
    started = time.perf_counter()
    for index, ctp in enumerate(ctps):
        for name in ALGORITHMS:
            result_set = get_algorithm(name).run(graph, ctp, config)
            rows += len(result_set)
            payload = (index, name, _canonical_rows(result_set))
            digest.update(repr(payload).encode("utf-8"))
    search_seconds = time.perf_counter() - started
    peak_total = peak_mb()

    print(
        json.dumps(
            {
                "digest": digest.hexdigest(),
                "rows": rows,
                "build_seconds": round(build_seconds, 3),
                "search_seconds": round(search_seconds, 3),
                "rss_build_mb": round(rss_build, 1),
                "peak_build_mb": round(peak_build, 1),
                "peak_mb": round(peak_total, 1),
                "search_peak_delta_mb": round(peak_total - peak_build, 1),
            }
        )
    )


def _run_child(nodes: int, timeout: float) -> Optional[Dict[str, Any]]:
    """Run one cell in a fresh process; ``None`` means DNF (timeout)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    # ``-c``, not ``-m``: the package ``__init__`` imports this module, and
    # re-running an already-imported module as ``__main__`` makes runpy warn.
    command = [sys.executable, "-c", f"from {__name__} import _child_main; _child_main({nodes})"]
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"scale child (nodes={nodes}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(scale: float = 1.0, timeout: Optional[float] = None, repeats: int = 1) -> ExperimentReport:
    # The headline size: 10^6 nodes at scale 1.0 (smoke clamps to 10^5).
    nodes = max(20_000, int(1_000_000 * scale))
    sizes = sorted({max(10_000, nodes // 10), nodes})
    # Build alone is ~25 s at 10^6; give every child room.
    child_timeout = timeout if timeout is not None else max(300.0, 1200.0 * scale)
    repeats = max(1, repeats)
    report = ExperimentReport(
        experiment="scale",
        title="Search-local ids: search-phase peak RSS and wall-clock at 10^6 nodes",
        config={
            "scale": scale,
            "timeout": child_timeout,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "sizes": sizes,
            "algorithms": list(ALGORITHMS),
            "num_ctps": NUM_CTPS,
            "seed": SEED,
            "max_edges": MAX_EDGES,
            "limit": LIMIT,
            "max_trees": MAX_TREES,
            "rss_ceiling_mb": DENSE_SEARCH_RSS_CEILING_MB,
        },
    )
    compared = 0
    identical = True
    worst_delta = 0.0
    for size in sizes:
        cells = [_run_child(size, child_timeout) for _ in range(repeats)]
        if None in cells:
            report.add_row(nodes=size, dnf=True, timeout_s=child_timeout)
            report.note(f"DNF: a {size}-node cell exceeded {child_timeout:.0f}s")
            worst_delta = float("inf")
            continue
        digests = {cell["digest"] for cell in cells}
        recorded = RECORDED_DIGESTS.get(size)
        if recorded is not None:
            compared += 1
            identical = identical and digests == {recorded}
        delta = max(cell["search_peak_delta_mb"] for cell in cells)
        worst_delta = max(worst_delta, delta)
        seconds = [cell["search_seconds"] for cell in cells]
        report.add(
            Measurement(
                params={"nodes": size},
                seconds=median(seconds),
                values={
                    "rows": cells[0]["rows"],
                    "build_s": median(cell["build_seconds"] for cell in cells),
                    "search_s": median(seconds),
                    "search_s_min": min(seconds),
                    "search_s_max": max(seconds),
                    "rss_build_mb": max(cell["rss_build_mb"] for cell in cells),
                    "peak_mb": max(cell["peak_mb"] for cell in cells),
                    "search_peak_delta_mb": delta,
                    "digest": "/".join(sorted(d[:16] for d in digests)),
                },
            )
        )

    # --- identity gate: rows hash to the recorded digest at every size ---
    report.add_row(regime="identity", sizes_compared=compared, identical=identical and compared > 0)
    if not identical:
        report.note("DETERMINISM FAILURE: result rows differ from the recorded digests")
    elif not compared:
        report.note("IDENTITY GATE VACUOUS: no size with a recorded digest completed")

    # --- RSS ceiling: search overhead stays flat -------------------------
    under = worst_delta <= DENSE_SEARCH_RSS_CEILING_MB
    report.add_row(
        regime="rss-ceiling",
        worst_delta_mb=worst_delta,
        ceiling_mb=DENSE_SEARCH_RSS_CEILING_MB,
        under_ceiling=under,
    )
    if not under:
        report.note(
            f"RSS FAILURE: the search phase added {worst_delta:.0f}MB, over the "
            f"{DENSE_SEARCH_RSS_CEILING_MB:.0f}MB ceiling"
        )
    return report
