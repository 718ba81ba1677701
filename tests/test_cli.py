"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestRun:
    def scenario_path(self, tmp_path, **overrides) -> str:
        payload = {
            "name": "cli-test",
            "files": [
                {"name": "pos", "blocks": 2, "latency": 2,
                 "fault_budget": 1},
                {"name": "map", "blocks": 3, "latency": 6},
            ],
            "workload": {"requests": 10, "horizon": 60, "seed": 4},
        }
        payload.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_run_summary(self, tmp_path, capsys):
        status = main(["run", self.scenario_path(tmp_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "scenario  : cli-test" in out
        assert "deadline miss rate" in out

    def test_run_json(self, tmp_path, capsys):
        status = main(["run", self.scenario_path(tmp_path), "--json"])
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scenario"]["name"] == "cli-test"
        assert record["simulation"]["requests"] == 10
        assert record["simulation"]["deadline_miss_rate"] == 0.0

    def test_checked_in_example_scenario(self, capsys):
        status = main(
            ["run", str(EXAMPLES_DIR / "scenario_awacs.json")]
        )
        assert status == 0
        assert "scenario  : awacs" in capsys.readouterr().out

    def test_checked_in_temporal_example(self, capsys):
        status = main(
            ["run", str(EXAMPLES_DIR / "scenario_awacs_temporal.json"),
             "--json"]
        )
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scenario"]["name"] == "awacs-temporal"
        assert record["scenario"]["temporal"]["mode"] == "combat"
        assert record["stats"]["bandwidth"] == 1
        temporal = record["traffic"]["temporal"]
        assert temporal["item_reads"] > 0
        assert 0.0 <= temporal["consistency_rate"] <= 1.0

    def test_run_multiple_scenarios(self, tmp_path, capsys):
        first = self.scenario_path(tmp_path)
        second = tmp_path / "second.json"
        second.write_text(
            Path(first).read_text(encoding="utf-8").replace(
                "cli-test", "cli-second"
            ),
            encoding="utf-8",
        )
        status = main(["run", first, str(second)])
        out = capsys.readouterr().out
        assert status == 0
        assert "scenario  : cli-test" in out
        assert "scenario  : cli-second" in out

    def test_run_workers_matches_serial_json(self, tmp_path, capsys):
        first = self.scenario_path(tmp_path)
        second = tmp_path / "second.json"
        second.write_text(
            Path(first).read_text(encoding="utf-8").replace(
                "cli-test", "cli-second"
            ),
            encoding="utf-8",
        )
        paths = [first, str(second)]
        status = main(["run", *paths, "--json"])
        serial = json.loads(capsys.readouterr().out)
        assert status == 0
        status = main(["run", *paths, "--json", "--workers", "2"])
        parallel = json.loads(capsys.readouterr().out)
        assert status == 0
        assert isinstance(serial, list) and len(serial) == 2
        assert parallel == serial

    def test_bad_workers_is_clean_error(self, tmp_path, capsys):
        # Rejected at argument parsing (usage error, exit status 2)
        # with a message naming the constraint - not a pool traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", self.scenario_path(tmp_path), "--workers", "0"])
        assert excinfo.value.code == 2
        assert "worker count must be >= 1" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        status = main(["run", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert status == 1
        assert "error:" in captured.err

    def test_invalid_scenario_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "files": []}', encoding="utf-8")
        status = main(["run", str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert "error:" in captured.err


class TestSchedulers:
    def test_lists_registry(self, capsys):
        status = main(["schedulers"])
        out = capsys.readouterr().out
        assert status == 0
        for name in ("two-task", "three-task", "double-reduction",
                     "single-reduction", "greedy", "exact", "harmonic"):
            assert name in out


class TestDesign:
    def test_basic_design(self, capsys):
        status = main(
            ["design", "--file", "pos:4:2:2", "--file", "map:6:5:1"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "bandwidth" in out
        assert "program" in out
        assert "pos'" in out

    def test_forced_bandwidth(self, capsys):
        status = main(
            ["design", "--file", "a:1:4", "--bandwidth", "2"]
        )
        assert status == 0
        assert "bandwidth : 2" in capsys.readouterr().out

    def test_infeasible_bandwidth_is_clean_error(self, capsys):
        status = main(
            ["design", "--file", "a:4:2", "--bandwidth", "1"]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "error:" in captured.err

    def test_bad_file_syntax_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["design", "--file", "nonsense"])
        assert excinfo.value.code == 2

    def test_periods_flag(self, capsys):
        status = main(
            ["design", "--file", "a:1:2", "--file", "b:1:3",
             "--periods", "2"]
        )
        assert status == 0


class TestGeneralized:
    def test_example5_shape(self, capsys):
        status = main(
            ["generalized", "--file", "F:2:5,6,6", "--file", "H:1:9,12"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "transform" in out
        assert "F'" in out

    def test_bad_vector_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["generalized", "--file", "F:3:5,3"])
        assert excinfo.value.code == 2


class TestDelayTable:
    def test_figure7_regeneration(self, capsys):
        status = main(
            [
                "delay-table",
                "--file", "A:5:10",
                "--file", "B:3:6",
                "--errors", "3",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        lines = [line for line in out.splitlines() if "|" in line]
        assert len(lines) == 5  # header + rows 0..3

    def test_negative_errors_fail_with_one_error_line(self, capsys):
        status = main(["delay-table", "--file", "A:5:10", "--errors", "-1"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: errors must be >= 0: -1"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
