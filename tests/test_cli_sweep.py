"""Tests for the ``repro sweep`` subcommand."""

import json
import time
from pathlib import Path

import pytest

from repro.cli import main

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


class TestSweepServe:
    def test_serve_with_local_workers(self, tmp_path, capsys):
        status = main(
            [
                "sweep", "serve", sweep_path(tmp_path),
                "--workers", "2",
                "--lease-seconds", "10",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "serving   : cli-grid on 127.0.0.1:" in out
        assert "cells     : 3 executed, 0 resumed" in out
        assert "1 solved cluster-wide" in out
        assert (tmp_path / "sweep.runs.jsonl").exists()

    def test_port_file_and_external_worker(self, tmp_path, capsys):
        import threading

        port_file = tmp_path / "port.txt"
        outcome = {}

        def serve():
            outcome["status"] = main(
                [
                    "sweep", "serve", sweep_path(tmp_path),
                    "--port-file", str(port_file),
                    "--json",
                ]
            )

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        deadline = 50
        while not port_file.exists() and deadline:
            import time

            time.sleep(0.1)
            deadline -= 1
        address = port_file.read_text().strip()
        status = main(
            [
                "sweep", "work",
                "--connect", address,
                "--cache-dir", str(tmp_path / "cache"),
                "--json",
            ]
        )
        server.join(timeout=60.0)
        assert status == 0
        assert outcome["status"] == 0
        out = capsys.readouterr().out
        # Both JSON payloads landed (print order between the serve
        # thread and the worker is not guaranteed): the worker's
        # stats and the coordinator's summary.
        assert '"cells": 3' in out
        assert '"solves": 1' in out

    def test_serve_resume_reports_reasons(self, tmp_path, capsys):
        spec = sweep_path(tmp_path)
        assert main(["sweep", "serve", spec, "--workers", "1"]) == 0
        capsys.readouterr()
        status = main(["sweep", "serve", spec, "--resume"])
        out = capsys.readouterr().out
        assert status == 0
        assert "cells     : 0 executed, 3 resumed" in out
        assert (
            "re-run    : 0 fingerprint drift (stored scenario "
            "changed), 0 missing key (never completed)" in out
        )

    def test_all_resumed_serve_spawns_no_workers(self, tmp_path, capsys):
        # Every cell resumes, so serve() returns at once: a worker
        # spawned anyway would dial the closed listener until its
        # connect timeout (10 s) before the command could exit.
        spec = sweep_path(tmp_path)
        assert main(["sweep", "serve", spec, "--workers", "1"]) == 0
        capsys.readouterr()
        begin = time.monotonic()
        status = main(["sweep", "serve", spec, "--resume", "--workers", "2"])
        assert status == 0
        assert time.monotonic() - begin < 5.0
        assert "cells     : 0 executed, 3 resumed" in capsys.readouterr().out

    def test_no_rows_prints_marginals(self, tmp_path, capsys):
        status = main(
            [
                "sweep", "serve", sweep_path(tmp_path),
                "--workers", "1",
                "--no-rows",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "marginal over faults.probability:" in out

    def test_work_bad_address_fails_cleanly(self, capsys):
        status = main(
            [
                "sweep", "work",
                "--connect", "127.0.0.1:1",
                "--connect-timeout", "0.3",
            ]
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_positional_sweep_form_still_works(self, tmp_path, capsys):
        # The verb routing must not shadow 'repro sweep spec.json'.
        status = main(["sweep", sweep_path(tmp_path)])
        assert status == 0
        assert "sweep     : cli-grid" in capsys.readouterr().out
