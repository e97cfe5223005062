#!/usr/bin/env python3
"""Compare two benchmark reports, or check that the benchmark is steady.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py --stability [--repeats 5]

``BASE.json`` / ``NEW.json`` are ``run.py --repeats N --out FILE`` reports.
One row per workload x end-to-end metric: base median, new median, the
change as a share of the base, the bound of ``BENCHMARK.json``, and a
verdict:

* ``unresolved`` — either side's own quartile spread (q3 - q1 over its
  median) exceeds the bound, so the runs cannot tell; otherwise
* ``worse`` / ``better`` — the new median is off by more than the bound
  in that direction;
* ``same`` — within the bound.

``--stability`` measures the same code twice — two sets of runs,
alternating which set goes first — and exits non-zero unless every row
is ``same`` and every exact counter of the traced runs of
``ctp_synthetic``, ``eql_paper`` and ``kg_scale`` is identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Tuple

import run as bench

#: Counts the program makes that must repeat exactly on the serial workloads.
EXACT_COUNTERS = (
    "ctp.provenances_per_op",
    "ctp.grows_per_op",
    "ctp.merges_per_op",
    "ctp.pruned_history_per_op",
    "ctp.queue_pushes_per_op",
    "ctp.results_per_op",
    "interning.pool_sets_per_op",
    "bgp.rows_out_per_query",
    "join.rows_out_per_query",
    "seeds.nodes_per_ctp",
)
EXACT_WORKLOADS = ("ctp_synthetic", "eql_paper", "kg_scale")


def verdict(base: Dict[str, float], new: Dict[str, float], better: str, bound: float) -> Tuple[float, str]:
    """(change as a share of the base median, verdict)."""
    change = (new["median"] - base["median"]) / base["median"]
    worsening = change if better == "lower" else -change
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (base, new))
    if spread > bound:
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if worsening < -bound:
        return change, "better"
    return change, "same"


def compare(base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base["workloads"] or workload not in new["workloads"]:
            continue
        base_stats = bench.summarise(base["workloads"][workload]["runs"])
        new_stats = bench.summarise(new["workloads"][workload]["runs"])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base_stats or name not in new_stats:
                rows.append({"workload": workload, "metric": name, "verdict": "unresolved",
                             "base": None, "new": None, "change": None, "bound": metric["bound"]})
                continue
            change, word = verdict(base_stats[name], new_stats[name], metric["better"],
                                   metric["bound"])
            rows.append({"workload": workload, "metric": name, "base": base_stats[name]["median"],
                         "new": new_stats[name]["median"], "change": change,
                         "bound": metric["bound"], "verdict": word,
                         "n": (base_stats[name]["n"], new_stats[name]["n"])})
    return rows


def exact_mismatches(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    out = []
    for workload in EXACT_WORKLOADS:
        sides = [report["workloads"].get(workload, {}).get("traces") for report in (base, new)]
        if not all(sides):
            continue
        for counter in EXACT_COUNTERS:
            values = {trace["metrics"].get(counter) for side in sides for trace in side}
            if len(values) != 1:
                out.append(f"{workload}: {counter} differs between runs: {sorted(values, key=str)}")
    return out


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':14s} {'metric':18s} {'base':>12s} {'new':>12s} {'change':>8s} "
          f"{'bound':>6s}  verdict")
    for row in rows:
        if row["base"] is None:
            print(f"{row['workload']:14s} {row['metric']:18s} {'-':>12s} {'-':>12s} {'-':>8s} "
                  f"{row['bound']:6.2f}  {row['verdict']} (missing)")
            continue
        print(f"{row['workload']:14s} {row['metric']:18s} {row['base']:12.4f} {row['new']:12.4f} "
              f"{row['change']:+8.1%} {row['bound']:6.2f}  {row['verdict']}"
              f"  (of base {row['base']:.4f}, n={row['n'][0]}/{row['n'][1]})")


def stability(repeats: int, seconds: float, seed: int) -> Tuple[Dict, Dict]:
    """Two sets of runs of the same code, alternating which set goes first."""
    sets = [
        {"workloads": {name: {"runs": [], "traces": []} for name in bench.WORKLOADS}}
        for _ in range(2)
    ]
    with bench.WorkDir() as work:
        for repeat in range(repeats):
            order = (0, 1) if repeat % 2 == 0 else (1, 0)
            for workload in bench.WORKLOADS:
                for side in order:
                    result = bench.run_workload(workload, seed + repeat, seconds, 0, work)
                    sets[side]["workloads"][workload]["runs"].append(result)
                    print(f"set {side} repeat {repeat} {workload}: failed={result['failed']}",
                          file=sys.stderr)
        for workload in EXACT_WORKLOADS:
            for side in (0, 1):
                sets[side]["workloads"][workload]["traces"].append(
                    bench.run_workload(workload, seed, seconds, 1, work))
    return sets[0], sets[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="*", metavar="REPORT.json")
    parser.add_argument("--stability", action="store_true")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", help="with --stability: write both sets here")
    args = parser.parse_args()
    spec = bench.load_spec()
    if args.stability:
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        base, new = stability(args.repeats, seconds, args.seed)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump({"first": base, "second": new}, handle, indent=1)
    elif len(args.reports) == 2:
        base, new = (json.load(open(path, "r", encoding="utf-8")) for path in args.reports)
    else:
        parser.error("give BASE.json NEW.json, or --stability")
    rows = compare(base, new, spec)
    print_rows(rows)
    if not args.stability:
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0
    problems = [f"{row['workload']}/{row['metric']}: {row['verdict']}"
                for row in rows if row["verdict"] != "same"]
    failures = [f"{workload}: {result['failed']} failed operations"
                for report in (base, new) for workload, entry in report["workloads"].items()
                for result in entry["runs"] + entry["traces"] if result["failed"]]
    problems += exact_mismatches(base, new) + failures
    for problem in problems:
        print(f"NOT STEADY: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
