"""Smoke tests: every paper experiment runs end-to-end at tiny scale and
produces rows with the expected shape claims."""

import pytest

from repro.bench.experiments import EXPERIMENTS, get_experiment
from repro.errors import ReproError


def test_registry_contains_every_figure_and_table():
    assert set(EXPERIMENTS) == {
        "fig02",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "table1",
        "abl01",
        "chaos",
        "delta",
        "parallel",
        "process-parallel",
        "scale",
        "serve",
    }


class TestAbl01:
    def test_runs_and_reports_both_ablations(self):
        report = get_experiment("abl01")(scale=1.0, timeout=5.0)
        ablations = {row["ablation"] for row in report.rows}
        assert ablations == {"merge2", "mo-inject"}
        lost = [row["lost_by_strict"] for row in report.rows if row["ablation"] == "merge2"]
        assert any(value > 0 for value in lost)


def test_unknown_experiment():
    with pytest.raises(ReproError):
        get_experiment("fig99")


class TestProcessParallelBench:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("process-parallel")(scale=0.25)

    def test_all_regimes_and_worker_counts_present(self, report):
        assert {row["regime"] for row in report.rows} == {"complete", "deadline", "snapshot"}
        assert {row["workers"] for row in report.rows if row["regime"] == "complete"} == {1, 2, 4}

    def test_complete_regime_rows_identical_at_every_worker_count(self, report):
        for row in report.rows:
            if row["regime"] in ("complete", "snapshot"):
                assert row["identical"] is True
        assert not any("FAILURE" in note for note in report.notes)

    def test_deadline_regime_saturates(self, report):
        deadline_rows = [row for row in report.rows if row["regime"] == "deadline"]
        assert deadline_rows
        for row in deadline_rows:
            assert row["ctps_timed_out"] == 4  # every CTP exhausted its budget

    def test_snapshot_row_reports_costs(self, report):
        (row,) = [row for row in report.rows if row["regime"] == "snapshot"]
        assert row["file_bytes"] > 0
        assert row["save_ms"] > 0 and row["mmap_load_ms"] > 0

    def test_cpu_count_recorded(self, report):
        # Readers of a checked-in JSON need to know whether the complete
        # regime had cores to overlap onto.
        assert report.config["cpu_count"] >= 1


class TestParallelBench:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("parallel")(scale=0.25)

    def test_all_regimes_and_worker_counts_present(self, report):
        assert {row["regime"] for row in report.rows} == {"complete", "deadline", "batch"}
        assert {row["workers"] for row in report.rows if row["regime"] == "complete"} == {2, 4, 8}

    def test_deterministic_regimes_row_identical(self, report):
        for row in report.rows:
            if row["regime"] in ("complete", "batch"):
                assert row["identical"] is True
        assert not any("FAILURE" in note for note in report.notes)

    def test_deadline_regime_saturates(self, report):
        deadline_rows = [row for row in report.rows if row["regime"] == "deadline"]
        assert deadline_rows
        for row in deadline_rows:
            assert row["ctps_timed_out"] == 4  # every CTP exhausted its budget


class TestFig02:
    def test_counts_are_exponential(self):
        report = get_experiment("fig02")(scale=0.4, timeout=5.0)
        full = [row for row in report.rows if row["complete"]]
        assert full
        for row in full:
            assert row["results"] == 2 ** row["N"] == row["expected"]

    def test_timeout_row_is_partial(self):
        report = get_experiment("fig02")(scale=0.4, timeout=5.0)
        last = report.rows[-1]
        assert not last["complete"]
        assert last["results"] <= last["expected"]


class TestFig10:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("fig10")(scale=0.25, timeout=1.0)

    def test_all_algorithms_present(self, report):
        assert {row["algorithm"] for row in report.rows} == {"bft", "bft-m", "bft-am", "gam"}

    def test_all_families_present(self, report):
        assert {row["family"] for row in report.rows} == {"line", "comb", "star"}

    def test_complete_runs_agree_on_result_count(self, report):
        by_point = {}
        for row in report.rows:
            if row["timed_out"]:
                continue
            key = (row["family"], row.get("m"), row["sL"])
            by_point.setdefault(key, set()).add(row["results"])
        assert by_point
        for key, counts in by_point.items():
            assert len(counts) == 1, f"complete algorithms disagree at {key}"


class TestFig11:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("fig11")(scale=0.25, timeout=2.0)

    def test_esp_lesp_incomplete_on_line(self, report):
        for row in report.rows:
            if row["family"] in ("line", "comb") and row["algorithm"] in ("esp", "lesp") and not row["timed_out"]:
                assert row["results"] == 0

    def test_moesp_molesp_find_line_results(self, report):
        for row in report.rows:
            if row["family"] == "line" and row["algorithm"] in ("moesp", "molesp") and not row["timed_out"]:
                assert row["results"] == 1

    def test_pruning_reduces_provenances(self, report):
        gam = {
            (row["family"], row.get("m"), row["sL"]): row["provenances"]
            for row in report.rows
            if row["algorithm"] == "gam" and not row["timed_out"]
        }
        for row in report.rows:
            if row["algorithm"] == "molesp" and not row["timed_out"]:
                key = (row["family"], row.get("m"), row["sL"])
                if key in gam:
                    assert row["provenances"] <= gam[key]


class TestFig12:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("fig12")(scale=0.2, timeout=3.0)

    def test_groups_cover_m_2_to_6(self, report):
        assert {row["m"] for row in report.rows} == {2, 3, 4, 5, 6}

    def test_systems_present(self, report):
        assert {row["system"] for row in report.rows} == {"qgstp", "molesp", "gam"}

    def test_molesp_solves_everything_qgstp_solves(self, report):
        by_m = {}
        for row in report.rows:
            by_m.setdefault(row["m"], {})[row["system"]] = row
        for m, systems in by_m.items():
            assert systems["molesp"]["solved"] >= systems["qgstp"]["solved"]


class TestFig13:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("fig13")(scale=0.25, timeout=3.0)

    def test_engines_present(self, report):
        engines = {row["engine"] for row in report.rows}
        assert {"molesp", "uni-molesp", "postgres-like", "jedi-like", "virtuoso-sparql-like", "virtuoso-sql-like", "neo4j-like"} <= engines

    def test_molesp_answers_equal_links(self, report):
        for row in report.rows:
            if row["engine"] == "molesp" and not row["timed_out"]:
                assert row["answers"] == row["NL"]

    def test_check_only_faster_than_returning(self, report):
        for sl in {row["sL"] for row in report.rows}:
            rows = {row["engine"]: row for row in report.rows if row["sL"] == sl}
            assert rows["virtuoso-sql-like"]["time_ms"] <= rows["postgres-like"]["time_ms"]


class TestFig14:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("fig14")(scale=0.25, timeout=3.0)

    def test_bidirectional_surplus(self, report):
        for row in report.rows:
            if row["engine"] == "molesp" and not row["timed_out"]:
                assert row["ctp_results"] > row["NL"]

    def test_uni_molesp_answers_equal_links(self, report):
        for row in report.rows:
            if row["engine"] == "uni-molesp" and not row["timed_out"]:
                assert row["answers"] == row["NL"]

    def test_stitch_engines_report_waste(self, report):
        stitch_rows = [row for row in report.rows if row["engine"].endswith("+stitch")]
        assert stitch_rows
        assert all("wasted" in row for row in stitch_rows)


class TestTable1:
    @pytest.fixture(scope="class")
    def report(self):
        return get_experiment("table1")(scale=0.5, timeout=3.0)

    def test_all_queries_and_engines(self, report):
        queries = {row["query"] for row in report.rows}
        assert queries == {"J1", "J2", "J3"}
        engines = {row["engine"] for row in report.rows}
        assert "molesp-eql" in engines

    def test_molesp_completes_every_query(self, report):
        for row in report.rows:
            if row["engine"] == "molesp-eql":
                assert row["time_s"] is not None
                assert 0.0 <= row["ctp_share"] <= 1.0
