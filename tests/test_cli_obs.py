"""Tests for the ``--telemetry`` flag and the ``repro obs`` subcommand."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.export import METRICS_PROM, TELEMETRY_JSON, TRACE_JSONL


def scenario_path(tmp_path, **overrides) -> str:
    payload = {
        "name": "obs-cli",
        "files": [
            {"name": "pos", "blocks": 2, "latency": 2, "fault_budget": 1},
            {"name": "map", "blocks": 3, "latency": 6},
        ],
        "workload": {"requests": 8, "horizon": 50, "seed": 4},
        "traffic": {
            "clients": 10, "duration": 100,
            "requests_per_client": 2, "seed": 13,
        },
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def sweep_path(tmp_path) -> str:
    payload = {
        "name": "obs-grid",
        "base": json.loads(Path(scenario_path(tmp_path)).read_text()),
        "axes": [
            {"field": "faults.kind", "values": ["bernoulli"]},
            {"field": "faults.probability", "values": [0.0, 0.1]},
        ],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTelemetryFlag:
    def test_run_exports_directory(self, tmp_path, capsys):
        out = tmp_path / "tel"
        status = main(
            ["run", scenario_path(tmp_path), "--telemetry", str(out)]
        )
        assert status == 0
        for name in (TELEMETRY_JSON, TRACE_JSONL, METRICS_PROM):
            assert (out / name).is_file()
        payload = json.loads((out / TELEMETRY_JSON).read_text())
        names = {m["name"] for m in payload["metrics"]}
        assert any(n.startswith("solve.") for n in names)

    def test_traffic_json_embeds_telemetry(self, tmp_path, capsys):
        out = tmp_path / "tel"
        status = main([
            "traffic", scenario_path(tmp_path),
            "--telemetry", str(out), "--json",
        ])
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in record["telemetry"]["metrics"]}
        assert "traffic.requests" in names
        assert "spans" not in record["telemetry"]
        # The full span trace still lands in the export directory.
        assert (out / TRACE_JSONL).read_text().strip()

    def test_traffic_without_flag_writes_nothing(self, tmp_path, capsys):
        status = main(["traffic", scenario_path(tmp_path), "--json"])
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert "telemetry" not in record

    def test_sweep_with_workers_exports(self, tmp_path, capsys):
        out = tmp_path / "tel"
        status = main([
            "sweep", sweep_path(tmp_path),
            "--workers", "2", "--telemetry", str(out), "--json",
        ])
        assert status == 0
        payload = json.loads((out / TELEMETRY_JSON).read_text())
        by_name = {
            (m["name"], tuple(map(tuple, m["labels"]))): m
            for m in payload["metrics"]
        }
        assert by_name[("sweep.cells.executed", ())]["value"] == 2
        prom = (out / METRICS_PROM).read_text()
        assert "repro_sweep_cells_executed_total 2" in prom

    def test_server_exports_mutation_spans(self, tmp_path, capsys):
        script = tmp_path / "mutations.json"
        script.write_text(json.dumps([
            {
                "at_slot": 40,
                "mutation": {
                    "kind": "fault_budget",
                    "name": "pos",
                    "delta": 1,
                },
            },
        ]))
        out = tmp_path / "tel"
        status = main([
            "server", scenario_path(tmp_path),
            "--script", str(script), "--telemetry", str(out), "--json",
        ])
        assert status == 0
        spans = [
            json.loads(line)
            for line in (out / TRACE_JSONL).read_text().splitlines()
        ]
        names = {s["name"] for s in spans}
        assert "server.mutation" in names
        assert "server.mutation.resolve" in names
        assert "server.mutation.splice_search" in names
        assert "server.mutation.splice_commit" in names
        # Child spans hang off the mutation span.
        mutation = next(s for s in spans if s["name"] == "server.mutation")
        children = {
            s["name"] for s in spans if s.get("parent") == mutation["id"]
        }
        assert "server.mutation.resolve" in children


class TestSharedWorkersValidation:
    @pytest.mark.parametrize("command", ["run", "traffic"])
    def test_zero_workers_exits_2(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, scenario_path(tmp_path), "--workers", "0"])
        assert excinfo.value.code == 2
        assert "worker count must be >= 1" in capsys.readouterr().err

    def test_sweep_zero_workers_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", sweep_path(tmp_path), "--workers", "0"])
        assert excinfo.value.code == 2


class TestObsSummarize:
    def test_summarize_renders_export(self, tmp_path, capsys):
        out = tmp_path / "tel"
        main([
            "traffic", scenario_path(tmp_path), "--engine", "object",
            "--workers", "2", "--telemetry", str(out),
        ])
        capsys.readouterr()
        status = main(["obs", "summarize", str(out)])
        assert status == 0
        text = capsys.readouterr().out
        assert "counters:" in text
        assert "traffic.requests{engine=object}" in text
        assert "traffic.shard" in text  # merged worker spans

    def test_summarize_reconstructs_sharded_sweep(self, tmp_path, capsys):
        out = tmp_path / "tel"
        main([
            "sweep", sweep_path(tmp_path),
            "--workers", "2", "--telemetry", str(out), "--json",
        ])
        capsys.readouterr()
        status = main(["obs", "summarize", str(out)])
        assert status == 0
        text = capsys.readouterr().out
        assert "sweep.cells.executed" in text
        # Span tree: cells nest queue/solve/simulate children.
        lines = text.splitlines()
        cell = next(l for l in lines if l.strip().startswith("sweep.cell "))
        solve = next(
            l for l in lines if l.strip().startswith("sweep.cell.solve")
        )
        assert (len(solve) - len(solve.lstrip())) > (
            len(cell) - len(cell.lstrip())
        )

    def test_summarize_missing_path_fails_cleanly(self, tmp_path, capsys):
        status = main(["obs", "summarize", str(tmp_path / "nope")])
        assert status == 1
        assert "error" in capsys.readouterr().err
