"""The common shape of a pass-based workload run.

``ctp_synthetic``, ``eql_paper`` and ``kg_scale`` are lists of operations
measured in whole passes; this module sets such a workload up (several
times, for a steady ``setup_s``), measures it, and — in a traced run —
repeats one pass under the span recorder.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import (
    Op,
    PassLog,
    Recorder,
    RunParams,
    end_to_end,
    measure_passes,
    peak_rss_mb,
    ratio,
    repeated_setup,
    rss_mb,
    run_pass,
    trees_digest,
)
from layers import layer_metrics

@dataclass
class PassState:
    """A set-up pass-based workload: its ops plus the warm-up pass's outputs."""

    ops: List[Op]
    #: First signature seen per op (filled by the warm-up pass).
    reference: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)
    #: Warm-up outputs, checked in full *after* the timed phase.
    warm: Dict[str, Any] = field(default_factory=dict)
    warm_log: PassLog = field(default_factory=PassLog)
    #: Set-up stage timings and sizes, already named as per-layer metrics.
    layer: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def warm_up(self) -> float:
        """The discarded first pass (part of ``setup_s``); returns its wall."""
        started = time.perf_counter()
        run_pass(self.ops, range(len(self.ops)), self.reference, self.warm_log, keep=self.warm)
        return time.perf_counter() - started


class PassWorkload:
    """Interface the three pass-based workloads implement."""

    name = ""
    #: How many times a run sets up (``setup_s`` is the median).
    setup_repeats = 3

    def build(self, params: RunParams) -> PassState:
        raise NotImplementedError

    def teardown(self, state: PassState) -> None:
        """Release what ``build`` opened (files, maps)."""

    def traced_pass(self, state: PassState, recorder: Recorder, order: Sequence[int]) -> Dict[str, Any]:
        """One pass with spans around each layer call; returns layer totals."""
        raise NotImplementedError

    def check(self, state: PassState, expected: Optional[Dict[str, Any]], problems: List[str]) -> set:
        """Full validation of the warm-up outputs; returns the bad op names."""
        raise NotImplementedError


def file_record(
    state: PassState,
    name: str,
    record: Dict[str, Any],
    issues: List[str],
    expected: Optional[Dict[str, Any]],
    problems: List[str],
    bad: set,
) -> None:
    """Shared tail of every ``check``: pin ``record``, report the first issue."""
    if expected is not None and expected.get(name) != record:
        issues.append(f"got {record}, pinned {expected.get(name)}")
    state.extra.setdefault("records", {})[name] = record
    if issues:
        bad.add(name)
        problems.append(f"{name}: {issues[0]}")


def search_record(result_set: Any) -> Dict[str, Any]:
    """What ``expected.json`` pins for one CTP evaluation."""
    return {
        "results": len(result_set),
        "provenances": result_set.stats.provenances,
        "digest": trees_digest(result_set),
    }


def run_pass_workload(
    workload: PassWorkload, params: RunParams, expected: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    rng = random.Random(params.seed)
    repeats = 1 if (params.trace or params.smoke) else workload.setup_repeats
    state, setup_samples = repeated_setup(
        lambda: workload.build(params), workload.teardown, repeats
    )
    problems: List[str] = list(state.warm_log.problems)
    try:
        if not params.trace:
            log = measure_passes(state.ops, params.seconds, rng, state.reference)
            passes = len(log.pass_ok)
            metrics: Dict[str, float] = {}
        else:
            order = list(range(len(state.ops)))
            rng.shuffle(order)
            rss_before = state.extra.pop("rss_before_search", None) or rss_mb()
            log = PassLog()
            run_pass(state.ops, order, state.reference, log)
            untraced = log.pass_busy[0] / log.speed_factors[0]  # CPU seconds, as measured
            recorder = Recorder()
            started = time.thread_time()
            totals = workload.traced_pass(state, recorder, order)
            traced = time.thread_time() - started
            log.attempted += len(order)
            totals = dict(state.layer, **totals)
            # Shares are of the time inside the program's calls; a workload whose
            # traced pass adds staged duplicate calls sets its own "wall".
            totals.setdefault("wall", traced)
            totals["trace.overhead_share"] = ratio(traced - untraced, untraced)
            totals["search.rss_delta_mb"] = rss_mb() - rss_before
            metrics = layer_metrics(totals)
            recorder.write(os.path.join(params.trace_dir, f"trace.{workload.name}.jsonl"))
            passes = 2
        bad = workload.check(state, expected, problems)
        problems.extend(log.problems)
        failed = min(log.attempted, log.failed + len(bad) * passes + state.warm_log.failed)
    finally:
        workload.teardown(state)
    if not params.trace:
        metrics = end_to_end(log, setup_samples, peak_rss_mb())
    return {
        "attempted": log.attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems[:20],
        "info": {
            "passes": len(log.pass_ok),
            "ops_per_pass": len(state.ops),
            "latency_samples": sum(len(v) for v in log.latencies_ms.values()),
            "speed_factors": log.speed_factors,
            "setup_samples_s": [round(s, 4) for s in setup_samples],
            "measured_wall_s": round(log.wall, 3),
            "records": state.extra.get("records", {}),
        },
    }

