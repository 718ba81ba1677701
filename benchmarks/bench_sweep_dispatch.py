"""Experiment SWEEP-DISPATCH: what a pooled sweep cell costs beyond its
replay.

A pooled sweep ships consecutive cells as one task
(:func:`repro.sweep.orchestrate._batch_size`) and commits each batch with
one group commit, and every cell's payload check multiplies over
GF(2^8) by gathers from one product table.  This bench records both
layers on ``bench_sweep``'s seeded 60-file, 120-cell grid at two
workers:

* **grid** - wall, rows/s, the parent's CPU (``RUSAGE_SELF``), the
  pool workers' CPU (``RUSAGE_CHILDREN``), pool tasks and the parent's
  fsyncs, per repetition;
* **floor** - the same grid with ``run_cell`` stubbed to return one
  fixed row, so only dispatch, result wake-ups and the store remain;
* **kernels** - ``gf_matvec_bytes`` on a sweep cell's 6-of-8 payload
  check (64-byte rows) and on a 256 KiB 8-of-16 dispersal, the
  8-of-16 reconstruction inverse, and
  ``systematic_dispersal_matrix(m + 2, m)`` at m = 32, 64 and 200.

The pooled rows must equal a serial run's except ``elapsed`` and
``cache_hit``.  Times are medians (grid) or fastest (kernels) of
several repetitions.  Results land in ``BENCH_sweep_dispatch.json`` at
the repo root, stamped with their provenance.  Set
``REPRO_BENCH_SMOKE=1`` for a small grid, one repetition and no JSON
record.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import repro.sweep.orchestrate as orchestrate
from benchmarks.bench_sweep import FILES, _grid
from benchmarks.conftest import print_table, provenance
from repro.ida.gf256 import gf_matvec_bytes
from repro.ida.vandermonde import (
    reconstruction_matrix,
    systematic_dispersal_matrix,
)
from repro.sweep import run_sweep

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
WORKERS = 2
REPETITIONS = 1 if SMOKE else 7
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep_dispatch.json"


def comparable(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in ("elapsed", "cache_hit")}


def timed_grid(tmp_path: Path, tag: str, spec) -> dict:
    """One pooled run of ``spec`` with its wall, CPU, tasks and fsyncs."""
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    os.fsync = counting_fsync
    try:
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        begin = time.perf_counter()
        result = run_sweep(
            spec,
            max_workers=WORKERS,
            store_path=tmp_path / f"{tag}.runs.jsonl",
            cache_dir=tmp_path / f"{tag}.solve-cache",
        )
        wall = time.perf_counter() - begin
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        os.fsync = real_fsync

    def cpu(before, after):
        return (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )

    cells = result.executed
    size = orchestrate._batch_size(cells, WORKERS)
    return {
        "result": result,
        "wall_s": wall,
        "rows_per_s": cells / wall,
        "parent_cpu_s": cpu(self_before, self_after),
        "worker_cpu_s": cpu(children_before, children_after),
        "tasks": -(-cells // size),
        "fsyncs": len(fsyncs),
    }


def summarize(runs: list[dict]) -> dict:
    keys = ("wall_s", "rows_per_s", "parent_cpu_s", "worker_cpu_s")
    out = {
        key: round(statistics.median(run[key] for run in runs), 4)
        for key in keys
    }
    out["wall_s_min"] = round(min(run["wall_s"] for run in runs), 4)
    out["tasks"] = runs[0]["tasks"]
    out["fsyncs"] = runs[0]["fsyncs"]
    out["repetitions"] = len(runs)
    return out


def fastest_us(call, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        begin = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - begin)
    return round(best * 1e6, 1)


def kernel_times() -> dict:
    rng = np.random.default_rng(0x1997)
    cell_matrix = systematic_dispersal_matrix(8, 6)
    cell_data = rng.integers(0, 256, (6, 64), dtype=np.uint8)
    big_matrix = systematic_dispersal_matrix(16, 8)
    big_data = rng.integers(0, 256, (8, 32 * 1024), dtype=np.uint8)
    rows = 3 if SMOKE else 50
    times = {
        "matvec_6_of_8_64B_us": fastest_us(
            lambda: gf_matvec_bytes(cell_matrix, cell_data), rows
        ),
        "matvec_8_of_16_256KiB_us": fastest_us(
            lambda: gf_matvec_bytes(big_matrix, big_data),
            3 if SMOKE else 10,
        ),
        "inverse_8_of_16_us": fastest_us(
            lambda: reconstruction_matrix(big_matrix, tuple(range(8, 16))),
            rows,
        ),
    }
    for m in (32, 64) if SMOKE else (32, 64, 200):
        times[f"systematic_{m + 2}_{m}_ms"] = round(
            fastest_us(
                lambda: systematic_dispersal_matrix(m + 2, m),
                1 if SMOKE or m == 200 else 5,
            ) / 1e3,
            3,
        )
    return times


def test_sweep_dispatch_layers_and_record(tmp_path, monkeypatch):
    spec = _grid()
    serial = run_sweep(spec, store_path=tmp_path / "serial.runs.jsonl")

    runs = [
        timed_grid(tmp_path, f"grid-{rep}", spec)
        for rep in range(REPETITIONS)
    ]
    for run in runs:
        assert [comparable(row) for row in run["result"].rows] == [
            comparable(row) for row in serial.rows
        ]
        assert run["fsyncs"] == run["tasks"]
    grid = summarize(runs)

    # The floor: every cell returns one fixed row, so what is left is
    # dispatch, result wake-ups and the group commits.
    fixed = (serial.rows[0], False)
    monkeypatch.setattr(
        orchestrate, "run_cell", lambda cell, cache, **kwargs: fixed
    )
    floor = summarize([
        timed_grid(tmp_path, f"floor-{rep}", spec)
        for rep in range(REPETITIONS)
    ])
    monkeypatch.undo()

    kernels = kernel_times()
    cells = spec.total_cells
    print_table(
        f"SWEEP-DISPATCH: {cells}-cell grid at {WORKERS} workers "
        f"(medians of {REPETITIONS})",
        ["arm", "wall (s)", "rows/s", "parent CPU (s)", "worker CPU (s)",
         "tasks", "fsyncs"],
        [
            [arm, f"{row['wall_s']:.3f}", f"{row['rows_per_s']:.0f}",
             f"{row['parent_cpu_s']:.3f}", f"{row['worker_cpu_s']:.3f}",
             row["tasks"], row["fsyncs"]]
            for arm, row in (("grid", grid), ("stubbed floor", floor))
        ],
    )
    print_table(
        "SWEEP-DISPATCH: GF(256) kernels (fastest)",
        ["kernel", "time"],
        [[name, value] for name, value in kernels.items()],
    )
    if SMOKE:  # smoke checks rows and commits, never timing
        return
    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "sweep_dispatch",
                "provenance": provenance(),
                "grid": {
                    "files": FILES,
                    "cells": cells,
                    "workers": WORKERS,
                    "batch": orchestrate._batch_size(cells, WORKERS),
                },
                "pooled": grid,
                "stubbed_floor": floor,
                "kernels": kernels,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
