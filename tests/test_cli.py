"""Tests for the command-line interfaces."""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.graph.datasets import figure1
from repro.graph.io import save_graph_json, save_graph_tsv


class TestQueryCommand:
    def test_query_on_demo_graph(self, capsys):
        code = main(["query", 'SELECT ?w WHERE { CONNECT("Bob", "Alice") AS ?w MAX 3 }'])
        assert code == 0
        out = capsys.readouterr().out
        assert "row(s)" in out
        assert "?w" in out

    def test_query_on_tsv_file(self, tmp_path, capsys):
        path = tmp_path / "g.tsv"
        save_graph_tsv(figure1(), path)
        code = main(
            [
                "query",
                'SELECT ?w WHERE { CONNECT("Bob", "Alice") AS ?w MAX 3 }',
                "--graph",
                str(path),
            ]
        )
        assert code == 0

    def test_query_on_json_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_graph_json(figure1(), path)
        code = main(
            [
                "query",
                'SELECT ?z ?w WHERE { CONNECT("OrgB", ?z) AS ?w MAX 3 FILTER(type(?z) = "politician") }',
                "--graph",
                str(path),
                "--algorithm",
                "gam",
            ]
        )
        assert code == 0
        assert "Elon" in capsys.readouterr().out

    def test_query_with_parallelism(self, capsys):
        query = (
            'SELECT ?w1 ?w2 WHERE { CONNECT("Bob", "Alice") AS ?w1 MAX 3 '
            'CONNECT("Bob", "USA") AS ?w2 MAX 3 }'
        )
        serial = main(["query", query])
        serial_out = capsys.readouterr().out
        parallel = main(["query", query, "--parallelism", "4"])
        parallel_out = capsys.readouterr().out
        assert serial == 0 and parallel == 0
        assert "merged in CTP order" in parallel_out
        # Identical rows: the whole row block (everything above the blank
        # line that precedes the timing summary) matches exactly.
        serial_rows = serial_out.split("\n\n")[0]
        assert "|" in serial_rows  # the block really is the result table
        assert serial_rows == parallel_out.split("\n\n")[0]

    def test_parallelism_must_be_positive(self, capsys):
        code = main(
            ["query", 'SELECT ?w WHERE { CONNECT("Bob", "Alice") AS ?w }', "--parallelism", "0"]
        )
        assert code == 1
        assert "parallelism" in capsys.readouterr().err

    def test_negative_parallelism_is_a_clean_user_error(self, capsys):
        """--parallelism -3 must exit 1 with a clear message, not traceback."""
        code = main(
            ["query", 'SELECT ?w WHERE { CONNECT("Bob", "Alice") AS ?w }', "--parallelism", "-3"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "parallelism" in err and ">= 1" in err

    def test_parallelism_runs_in_a_worker_pool(self, capsys):
        """``--parallelism N>1`` opens a worker pool for the command."""
        query = (
            'SELECT ?w1 ?w2 WHERE { CONNECT("Bob", "Alice") AS ?w1 MAX 3 '
            'CONNECT("Bob", "USA") AS ?w2 MAX 3 }'
        )
        serial = main(["query", query])
        serial_out = capsys.readouterr().out
        process = main(["query", query, "--parallelism", "2"])
        process_out = capsys.readouterr().out
        assert serial == 0 and process == 0
        assert serial_out.split("\n\n")[0] == process_out.split("\n\n")[0]
        assert "?w1: [process]" in process_out
        assert "?w1: [serial]" in serial_out
        assert "deadline: rebalances=0 " in process_out
        assert "deadline: rebalances=0 " in serial_out

    def test_bad_query_reports_error(self, capsys):
        code = main(["query", "SELECT ?w WHERE {"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSnapshotCommands:
    def test_snapshot_roundtrip_through_cli(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        save_graph_json(figure1(), graph_path)
        snap_path = tmp_path / "g.snapshot"
        code = main(["snapshot", "--graph", str(graph_path), "--out", str(snap_path)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert snap_path.exists()

        query = 'SELECT ?w WHERE { CONNECT("Bob", "Alice") AS ?w MAX 3 }'
        plain = main(["query", query, "--graph", str(graph_path)])
        plain_out = capsys.readouterr().out
        snapped = main(["query", query, "--snapshot", str(snap_path)])
        snapped_out = capsys.readouterr().out
        assert plain == 0 and snapped == 0
        assert plain_out.split("\n\n")[0] == snapped_out.split("\n\n")[0]

    def test_info_on_snapshot(self, tmp_path, capsys):
        snap_path = tmp_path / "fig1.snapshot"
        assert main(["snapshot", "--out", str(snap_path)]) == 0
        capsys.readouterr()
        assert main(["info", "--snapshot", str(snap_path)]) == 0
        assert "nodes=12" in capsys.readouterr().out

    def test_graph_and_snapshot_are_mutually_exclusive(self, tmp_path, capsys):
        snap_path = tmp_path / "fig1.snapshot"
        assert main(["snapshot", "--out", str(snap_path)]) == 0
        capsys.readouterr()
        code = main(
            ["query", 'SELECT ?w WHERE { CONNECT("Bob", "Alice") AS ?w }',
             "--graph", str(snap_path), "--snapshot", str(snap_path)]
        )
        assert code == 1
        assert "either --graph or --snapshot" in capsys.readouterr().err

    def test_corrupt_snapshot_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.snapshot"
        bad.write_bytes(b"this is not a snapshot")
        code = main(["info", "--snapshot", str(bad)])
        assert code == 1
        assert "bad magic" in capsys.readouterr().err


class TestOtherCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Q1" in out

    def test_info_default_graph(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "nodes=12" in out

    def test_serve_summary_line(self, capsys):
        query = 'SELECT ?w WHERE { CONNECT("USA", "France") AS ?w MAX 3 }'
        assert main(["serve", "--workers", "1", "--clients", "1", "--repeat", "1", query]) == 0
        out = capsys.readouterr().out
        (summary,) = [line for line in out.splitlines() if line.startswith("served=")]
        assert "served=1 " in summary
        assert "respawns=0 " in summary and "recycles=0 |" in summary
        assert "breaker" not in summary

    def test_bench_delegation(self, capsys, tmp_path):
        code = main(["bench", "abl01", "--no-save", "--timeout", "2"])
        assert code == 0
        assert "abl01" in capsys.readouterr().out


class TestBenchCli:
    def test_saves_json(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        code = bench_main(["fig02", "--scale", "0.2", "--out", str(tmp_path)])
        assert code == 0
        saved = json.loads((tmp_path / "fig02.json").read_text())
        assert saved["experiment"] == "fig02"
        assert saved["rows"]

    def test_unknown_experiment_raises(self):
        from repro.bench.cli import main as bench_main
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            bench_main(["fig99", "--no-save"])

    @pytest.mark.parametrize("identical, code", [(True, 0), (False, 1)])
    def test_row_not_identical_fails_the_command(self, monkeypatch, capsys, identical, code):
        from repro.bench.cli import main as bench_main
        from repro.bench.experiments import EXPERIMENTS
        from repro.bench.harness import ExperimentReport

        def fake(scale, timeout, repeats):
            report = ExperimentReport(experiment="fake", title="fake", config={})
            report.add_row(regime="ok", identical=True)
            report.add_row(regime="suspect", identical=identical)
            return report

        monkeypatch.setitem(EXPERIMENTS, "fake", fake)
        assert bench_main(["fake", "--no-save"]) == code
        err = capsys.readouterr().err
        if identical:
            assert "not identical" not in err
        else:
            assert "fake" in err and "suspect" in err
            assert "regime': 'ok'" not in err


def test_module_entrypoint_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "demo"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
