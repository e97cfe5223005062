#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                       # every workload, untraced
    python3 benchmarks/e2e/run.py --trace               # ... plus the per-layer run
    python3 benchmarks/e2e/run.py --workload serve_read --seed 43 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --smoke               # same code path, tiny sizes

Each workload runs in its own subprocess (fresh RSS high-water mark, no
shared warm caches, ``PYTHONHASHSEED=0``), under a hard wall-clock guard.
End-to-end numbers come from the untraced run; ``--trace 1`` repeats one
pass under the span recorder and reports the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (for one workload:
its metrics by name; for several: ``<workload>/<metric>``).  The exit
code is non-zero when any output was wrong or any operation failed.

See README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("ctp_synthetic", "eql_paper", "serve_read", "serve_ingest", "kg_scale")
#: The pass-based ones and their modules (the other two live in wl_serve).
PASS_WORKLOADS = {"ctp_synthetic": "wl_ctp_synthetic", "eql_paper": "wl_eql_paper",
                  "kg_scale": "wl_kg_scale"}
#: Seconds one workload subprocess may take before its process group is
#: killed (the driver allows 180 s per run).
GUARD_SECONDS = 170
SMOKE_SECONDS = 0.3


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> Dict[str, Any]:
    """Run hygiene: what the numbers were measured on."""
    affinity = sorted(os.sched_getaffinity(0))
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    load1 = os.getloadavg()[0]
    if load1 > 0.5:
        print(f"warning: 1-min load average is {load1:.2f} (> 0.5); timings will be noisy",
              file=sys.stderr)
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_1min": load1,
    }


# ----------------------------------------------------------------------
# child: one workload in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from harness import RunParams

    workload = args.workload[0]
    section = "smoke" if args.smoke else "full"
    expected = None
    expected_path = HERE / "expected.json"
    if expected_path.exists() and not args.record_expected:
        with open(expected_path, "r", encoding="utf-8") as handle:
            expected = json.load(handle).get(section, {}).get(workload)
    params = RunParams(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        work_dir=os.environ["TMPDIR"],
        trace_dir=str(ROOT / "bench_results" / "e2e"),
        nproc=len(os.sched_getaffinity(0)),
    )
    if workload in PASS_WORKLOADS:
        from passes import run_pass_workload

        module = importlib.import_module(PASS_WORKLOADS[workload])
        result = run_pass_workload(module.WORKLOAD, params, expected)
    else:
        import wl_serve

        result = wl_serve.run(workload, params, expected)
    with open(args.child, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ----------------------------------------------------------------------
# parent: one subprocess per workload
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: int, work: Path,
                 smoke: bool = False, record_expected: bool = False) -> Dict[str, Any]:
    """One workload, one seed, in a fresh guarded subprocess."""
    # Short names: the pool's forkserver puts an AF_UNIX socket (108-byte
    # path limit) under TMPDIR.
    tmp = work / uuid.uuid4().hex[:6]
    tmp.mkdir(parents=True)
    out = tmp / "result.json"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # Snapshots, auto-snapshots of the worker pool and every other temp
    # file land inside the checkout and are removed with ``work``.
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, str(HERE / "run.py"), "--child", str(out),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if record_expected:
        command.append("--record-expected")
    # Own session: the guard can kill workers the workload spawned too.
    proc = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=GUARD_SECONDS)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:  # reap stragglers (a crashed run may leave pool workers behind)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Kept until here so a failed run leaves nothing behind either.
        result = None
        if code == 0 and out.exists():
            with open(out, "r", encoding="utf-8") as handle:
                result = json.load(handle)
        shutil.rmtree(tmp, ignore_errors=True)
    if result is not None:
        return result
    reason = (f"wall-clock guard: no result within {GUARD_SECONDS}s" if code is None
              else f"workload subprocess exited with code {code}")
    return {"attempted": 1, "failed": 1, "metrics": {}, "info": {}, "problems": [reason]}


class WorkDir:
    """``.e2e_tmp/<id>`` inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        self.path = ROOT / ".e2e_tmp" / uuid.uuid4().hex[:8]
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no concurrent run is using it
        except OSError:
            pass


def summarise(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per metric: median, quartiles and sample count over repeated runs."""
    out: Dict[str, Dict[str, float]] = {}
    names = [name for result in results for name in result["metrics"]]
    for name in dict.fromkeys(names):
        values = [r["metrics"][name] for r in results if name in r["metrics"]]
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    return out


def print_results(workload: str, kind: str, results: List[Dict[str, Any]],
                  units: Dict[str, str]) -> None:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"\n== {workload}: {kind}; runs={len(results)} attempted={attempted} failed={failed}")
    for name, stats in summarise(results).items():
        spread = f"  [{stats['q1']:.4f} .. {stats['q3']:.4f}]" if stats["n"] > 1 else ""
        print(f"  {name:34s} {stats['median']:14.4f} {units.get(name, ''):6s}{spread}")
    for result in results:
        for problem in result["problems"]:
            print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced pass "
                             "(bare --trace with several workloads: both runs)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ...; medians are reported")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    parser.add_argument("--out", help="write the full report (every run, info, environment) here")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json from this run instead of checking against it")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.child:
        return child_main(args)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        # The program is not in this checkout: nothing to measure, no result.
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2

    workloads = args.workload or list(WORKLOADS)
    single = len(workloads) == 1
    # One workload: exactly the run asked for.  Several: the untraced run
    # always, the traced one as well when --trace is given.
    traces = [args.trace] if single else ([0, 1] if args.trace else [0])
    units = _units(spec)
    report: Dict[str, Any] = {"environment": environment(), "seed": args.seed,
                              "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    with WorkDir() as work:
        for workload in workloads:
            entry = report["workloads"].setdefault(workload, {"runs": [], "traces": []})
            for trace in traces:
                results = [
                    run_workload(workload, args.seed + repeat, args.seconds, trace, work,
                                 args.smoke, args.record_expected)
                    for repeat in range(args.repeats)
                ]
                entry["traces" if trace else "runs"] = results
                print_results(workload, "per-layer (traced)" if trace else "end-to-end",
                              results, units)

    if args.record_expected:
        _record_expected(report, "smoke" if args.smoke else "full")
    for entry in report["workloads"].values():
        for result in entry["runs"] + entry["traces"]:
            result.get("info", {}).pop("records", None)  # only expected.json wants them
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)

    results = [r for entry in report["workloads"].values() for r in entry["runs"] + entry["traces"]]
    failed = sum(r["failed"] for r in results)
    metrics: Dict[str, Any] = {}
    for workload, entry in report["workloads"].items():
        for group in (entry["runs"], entry["traces"]):
            for name, stats in summarise(group).items():
                key = name if single else f"{workload}/{name}"
                metrics[key] = {"value": stats["median"], "unit": units.get(name, "")}
    correct = failed == 0 and all(r["metrics"] for r in results)
    print()
    print(json.dumps({"correct": correct, "attempted": max(sum(r["attempted"] for r in results), 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _record_expected(report: Dict[str, Any], section: str) -> None:
    path = HERE / "expected.json"
    pinned: Dict[str, Any] = {}
    if path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
    for workload, entry in report["workloads"].items():
        for result in entry["runs"]:
            records = result.get("info", {}).get("records")
            if records:
                pinned.setdefault(section, {}).setdefault(workload, {}).update(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
