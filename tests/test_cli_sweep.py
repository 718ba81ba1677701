"""Tests for the ``repro sweep`` subcommand."""

import json
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

from repro.cli import main
from repro.sweep import RunStore, SweepSpec, run_sweep
from repro.sweep.orchestrate import _batch_size

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def sweep_path(tmp_path, **spec_overrides) -> str:
    payload = {
        "name": "cli-grid",
        "base": {
            "name": "cli-base",
            "files": [
                {"name": "pos", "blocks": 2, "latency": 2,
                 "fault_budget": 1},
                {"name": "map", "blocks": 3, "latency": 6},
            ],
            "workload": {"requests": 8, "horizon": 50, "seed": 3},
        },
        "axes": [
            {"field": "faults.kind", "values": ["bernoulli"]},
            {"field": "faults.probability",
             "values": [0.0, 0.05, 0.1]},
        ],
    }
    payload.update(spec_overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSweep:
    def test_summary_and_table(self, tmp_path, capsys):
        status = main(["sweep", sweep_path(tmp_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "sweep     : cli-grid (3 cells" in out
        assert "designs   : 1 distinct, 1 solved, 2 cell cache hits" in out
        assert "faults.probability" in out  # the tidy table

    def test_default_store_and_cache_paths(self, tmp_path, capsys):
        status = main(["sweep", sweep_path(tmp_path)])
        assert status == 0
        assert (tmp_path / "sweep.runs.jsonl").exists()
        assert list((tmp_path / "sweep.solve-cache").glob("*.pkl"))

    def test_json_record(self, tmp_path, capsys):
        status = main(["sweep", sweep_path(tmp_path), "--json"])
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["summary"]["cells"] == 3
        assert record["summary"]["solves"] == 1
        assert len(record["records"]) == 3
        assert record["records"][2]["faults.probability"] == 0.1

    def test_second_run_is_all_cache_hits(self, tmp_path, capsys):
        main(["sweep", sweep_path(tmp_path), "--json"])
        capsys.readouterr()
        # Fresh store, same cache: every design comes from the cache.
        status = main(
            ["sweep", sweep_path(tmp_path), "--json",
             "--store", str(tmp_path / "second.runs.jsonl")]
        )
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["summary"]["solves"] == 0
        assert record["summary"]["cache_hits"] == 3

    def test_resume_skips_completed_cells(self, tmp_path, capsys):
        path = sweep_path(tmp_path)
        main(["sweep", path, "--json"])
        capsys.readouterr()
        status = main(["sweep", path, "--resume", "--json"])
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["summary"]["executed"] == 0
        assert record["summary"]["resumed"] == 3
        # The text summary says the same, and why nothing re-ran.
        assert main(["sweep", path, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "cells     : 0 executed, 3 resumed" in out
        assert (
            "re-run    : 0 fingerprint drift (stored scenario "
            "changed), 0 missing key (never completed)" in out
        )

    def test_corrupt_store_line_is_one_error_line(self, tmp_path, capsys):
        path = sweep_path(tmp_path)
        store = tmp_path / "sweep.runs.jsonl"
        assert main(["sweep", path]) == 0
        with open(store, "ab") as handle:
            handle.write(b"\xff\xfe\n")
        capsys.readouterr()
        status = main(["sweep", path, "--resume"])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith(f"error: {store}:4: malformed run-store line")
        assert err.count("\n") == 1

    def test_workers_flag_runs_pool(self, tmp_path, capsys):
        status = main(["sweep", sweep_path(tmp_path), "--workers", "2",
                       "--json"])
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["summary"]["workers"] == 2

    def test_no_cache_flag(self, tmp_path, capsys):
        status = main(
            ["sweep", sweep_path(tmp_path), "--no-cache", "--json"]
        )
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["summary"]["solves"] == 3
        assert not (tmp_path / "sweep.solve-cache").exists()

    def test_bad_workers_is_a_usage_error(self, tmp_path, capsys):
        for raw in ("0", "-3", "two"):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", sweep_path(tmp_path), "--workers", raw])
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "worker count must be >= 1" in err or "positive" in err

    def test_traffic_workers_rejected_too(self, tmp_path, capsys):
        # The same guard covers repro traffic.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "name": "t",
                    "files": [{"name": "pos", "blocks": 2, "latency": 2}],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["traffic", str(scenario), "--workers", "-1"])
        assert excinfo.value.code == 2
        assert "worker count must be >= 1" in capsys.readouterr().err

    def test_invalid_spec_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}', encoding="utf-8")
        status = main(["sweep", str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert "error:" in captured.err

    def test_checked_in_example_sweep(self, tmp_path, capsys):
        spec = EXAMPLES_DIR / "sweep_fault_grid.json"
        status = main(
            ["sweep", str(spec),
             "--store", str(tmp_path / "runs.jsonl"),
             "--cache-dir", str(tmp_path / "cache")]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "sweep     : fault-grid" in out



def killed_grid(tmp_path) -> Path:
    """sweep_fault_grid.json's base, 400 requests a cell, over 4 loss
    probabilities x 30 fault seeds: 120 cells of one design."""
    spec = json.loads(
        (EXAMPLES_DIR / "sweep_fault_grid.json").read_text(encoding="utf-8")
    )
    spec["base"]["workload"]["requests"] = 400
    spec["axes"] = [
        {"field": "faults.kind", "values": ["bernoulli"]},
        {"field": "faults.probability", "values": [0.0, 0.02, 0.05, 0.1]},
        {"field": "faults.seed", "values": list(range(1, 31))},
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def stored_lines(path: Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


class TestKilledPool:
    def test_sigkilled_pool_resumes_to_the_serial_rows(self, tmp_path):
        # A crash mid-sweep is a SIGKILL of the whole process group,
        # parent and pool workers alike; --resume then runs only the
        # cells whose batch never reached the store.
        grid = killed_grid(tmp_path)
        spec = SweepSpec.from_file(grid)
        cells = spec.total_cells
        store = tmp_path / "runs.jsonl"
        command = [
            sys.executable, "-m", "repro", "sweep", str(grid),
            "--workers", "2", "--store", str(store),
            "--cache-dir", str(tmp_path / "cache"), "--json",
        ]
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        }
        sweep = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while (
                stored_lines(store) < _batch_size(cells, 2)
                and sweep.poll() is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        finally:
            # A sweep that finished first has no group left to kill.
            with suppress(ProcessLookupError):
                os.killpg(sweep.pid, signal.SIGKILL)
            sweep.wait()
        # The kill must land mid-sweep; a grid that finishes first is
        # too small for this host and must grow, not be skipped.
        assert sweep.returncode == -signal.SIGKILL
        killed_at = stored_lines(store)
        assert 0 < killed_at < cells

        resumed = subprocess.run(
            [*command, "--resume"], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        summary = json.loads(resumed.stdout)["summary"]
        assert summary["resumed"] == killed_at
        assert summary["executed"] + summary["resumed"] == cells
        assert summary["solves"] == 0

        rows = RunStore(store).rows()
        keys = [row["key"] for row in rows]
        assert len(keys) == len(set(keys)) == cells

        def steady(row):
            return {
                field: value for field, value in row.items()
                if field not in ("elapsed", "cache_hit")
            }

        serial = run_sweep(spec)
        by_key = {row["key"]: steady(row) for row in rows}
        assert [by_key[row["key"]] for row in serial.rows] == [
            steady(row) for row in serial.rows
        ]
