"""Result export (JSON/CSV) and the command-line interface."""

import csv
import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.export import export_all, to_csv, to_json
from repro.experiments.report import ExperimentResult


@pytest.fixture(scope="module")
def table1():
    return run_experiment("table1")


class TestExport:
    def test_json_roundtrip(self, table1, tmp_path):
        path = to_json(table1, tmp_path / "t1.json")
        loaded = json.loads(path.read_text())
        assert loaded["experiment_id"] == table1.experiment_id
        assert loaded["rows"] == json.loads(json.dumps(table1.rows))

    def test_csv_columns(self, table1, tmp_path):
        path = to_csv(table1, tmp_path / "t1.csv")
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(table1.rows)
        assert rows[3]["technology"] == "LPDDR5X"

    def test_csv_handles_ragged_rows(self, tmp_path):
        result = ExperimentResult(experiment_id="x", title="t",
                                  rows=[{"a": 1}, {"a": 2, "b": 3}])
        path = to_csv(result, tmp_path / "x.csv")
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["b"] == ""
        assert rows[1]["b"] == "3"

    def test_empty_rows_rejected(self, tmp_path):
        result = ExperimentResult(experiment_id="x", title="t", rows=[])
        with pytest.raises(ConfigurationError):
            to_csv(result, tmp_path / "x.csv")

    def test_export_all(self, table1, tmp_path):
        written = export_all([table1], tmp_path / "out")
        assert len(written) == 2
        assert all(p.exists() for p in written)


class TestCli:
    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table3" in out

    def test_platform_summary(self, capsys):
        assert main(["platform"]) == 0
        assert "memory_capacity_gb" in capsys.readouterr().out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "num_pes" in capsys.readouterr().out

    def test_run_with_export(self, capsys, tmp_path):
        assert main(["run", "table1", "--export", str(tmp_path)]) == 0
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "table1.csv").exists()

    def test_estimate(self, capsys):
        assert main(["estimate", "OPT-1.3B", "--out", "8"]) == 0
        out = capsys.readouterr().out
        assert "CXL-PNM" in out and "A100-40G" in out

    def test_estimate_unknown_model_fails_cleanly(self, capsys):
        assert main(["estimate", "OPT-9000B"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "OPT-13B", "--class", "interactive:ttft=0.5", "--slo"],
        ["serve", "OPT-13B", "--class", "batch:1:high"],
        ["serve", "OPT-13B", "--class", "batch:nan"],
        ["chaos", "--fail", "abc"],
        ["chaos", "--fail", "1.0:x"],
        ["chaos", "--stall", "x:1"],
        ["chaos", "--stall", "1:2:1.5"],
    ])
    def test_malformed_spec_fails_cleanly(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --") and "Traceback" not in err

    def test_generate(self, capsys):
        assert main(["generate", "--num-tokens", "3",
                     "--prompt", "1", "2"]) == 0
        assert "->" in capsys.readouterr().out

    def test_serve_compare_fcfs_runs_on_the_same_devices(self, capsys):
        assert main(["serve", "OPT-13B", "--requests", "32",
                     "--compare-fcfs", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        instances = [line.split()[1] for line in out.splitlines()
                     if line.split()[:1] == ["num_instances"]]
        assert instances == ["2.0000", "2.0000"]
        assert "[fcfs-exclusive]" in out and "[continuous x2]" in out

    def test_models_table(self, capsys):
        assert main(["models"]) == 0
        assert "OPT-66B" in capsys.readouterr().out
