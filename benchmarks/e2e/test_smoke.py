"""Smoke test of the end-to-end benchmark: every workload at smoke scale."""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import run

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _smoke(out: Path, trace: str) -> tuple[subprocess.CompletedProcess, list]:
    done = _bench("--seed", "3", "--seconds", "0", "--scale", "smoke",
                  "--trace", trace, "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads((out / "result.json").read_text(encoding="utf-8"))
    return done, record


def _assert_printed(stdout: str, section: str) -> None:
    for metric in BENCHMARK[section]:
        pattern = rf"^\s+{re.escape(metric['name'])}\s+{re.escape(metric['unit'])}\s"
        printed = re.findall(pattern, stdout, flags=re.MULTILINE)
        assert len(printed) == len(WORKLOADS), metric["name"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    done, record = _smoke(out, "0")
    return out, done, record


def test_every_workload_passes_and_prints_every_metric(untraced):
    _, done, record = untraced
    rows = record["rows"]
    assert [row["workload"] for row in rows] == WORKLOADS
    assert all(row["correct"] and row["failed"] == 0 for row in rows)
    _assert_printed(done.stdout, "end_to_end")
    assert len({row["pid"] for row in rows}) == len(rows)
    provenance = record["provenance"]
    for key in ("commit", "dirty", "cpus", "python", "numpy", "seed", "scale"):
        assert key in provenance
    assert provenance["seed"] == 3 and provenance["scale"] == "smoke"


def test_compare_with_itself_reports_no_regression(untraced):
    out, _, _ = untraced
    result = str(out / "result.json")
    done = _bench("--compare", result, result)
    assert done.returncode == 0, done.stdout
    assert "no regression" in done.stdout
    assert not re.search(r"\sworse$", done.stdout, flags=re.MULTILINE)


def test_traced_run_folds_without_dropped_spans(tmp_path):
    done, record = _smoke(tmp_path, "1")
    _assert_printed(done.stdout, "per_layer")
    for row in record["rows"]:
        assert row["correct"], row["failures"]
        assert row["metrics"]["obs.spans_dropped"]["value"] == 0
        layers = json.loads(
            (tmp_path / row["workload"] / "layers.json").read_text(encoding="utf-8")
        )
        assert layers["spans_dropped"] == 0
        assert layers["paths"]["bench.rep"]["count"] == 1
        assert (tmp_path / row["workload"] / "trace.jsonl").exists()


def test_each_row_measures_its_own_process(tmp_path):
    args = argparse.Namespace(seed=3, seconds=0, trace=0)
    rows = run.run_all(
        [("traffic-clean", "full"), ("traffic-clean", "smoke")], args, tmp_path
    )
    assert all(row["correct"] for row in rows)
    assert rows[0]["pid"] != rows[1]["pid"]
    full, smoke = (row["metrics"]["peak_rss_mb"]["value"] for row in rows)
    assert smoke < full


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _bench("--workload", "traffic-clean", "--seed", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
