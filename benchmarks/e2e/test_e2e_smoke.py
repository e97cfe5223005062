"""Smoke test of the e2e benchmark: same code path as a real run, tiny sizes.

Runs ``run.py --smoke --trace`` once (every workload, untraced and
traced) and checks what it emitted against ``BENCHMARK.json`` and the
per-layer catalogue.  Collected by the tier-1 command.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(HERE))
from layers import PER_LAYER  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s").items()
    # 4 + 22 x workloads runs of <= 30 s fit the driver's 3420 s
    assert (4 + 22 * len(spec["workloads"])) * 30 <= 3420


def test_per_layer_catalogue_matches_benchmark_json(spec):
    assert [(name, unit, better) for name, unit, better, _, _ in PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ]
    metrics = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for name, _, _, moves, _ in PER_LAYER:
        for metric, workload in moves:
            assert metric in metrics and workload in workloads, (name, metric, workload)


def test_smoke_run_emits_every_metric_and_nothing_fails(spec, smoke):
    last_line, report = smoke
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True and last_line["failed"] == 0
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload, entry in report["workloads"].items():
        (run,), (trace,) = entry["runs"], entry["traces"]
        assert sorted(run["metrics"]) == sorted(end_to_end), workload
        assert sorted(trace["metrics"]) == sorted(per_layer), workload
        assert all(value > 0 for value in run["metrics"].values()), (workload, run["metrics"])
        assert run["attempted"] >= 1 and run["failed"] == 0 and trace["failed"] == 0
        assert f"{workload}/setup_s" in last_line["metrics"]
