"""Experiment SWEEP: the schedule solve-cache on a fault-only grid.

A parameter sweep that varies only fault and traffic knobs leaves the
scheduled pinwheel instance untouched, so under the content-addressed
solve-cache (:mod:`repro.sweep.cache`) exactly one cell pays the
designer - bandwidth planning, portfolio scheduling, verification - and
every other cell injects the cached :class:`ProgramDesign` and pays only
its own simulation.  This bench quantifies that on a 120-cell grid over
a 60-file catalogue, expensive enough to design that the solver
dominates a cell (at 40 files, since designs got cheaper, full runs
read 3.3-5.3x):

* **cache off** - every cell re-solves the identical instance;
* **cache on** - one solve, every other cell a content-addressed hit.

The acceptance floor is a >= 5x wall-clock speedup (full configuration
only).  The run store is exercised in both arms (rows stream to JSONL
either way), so the speedup is end-to-end, not a microbenchmark of the
solver.  Results land in ``BENCH_sweep.json`` at the repo root, stamped
with their provenance (commit, CPU count, Python and numpy versions).  Set
``REPRO_BENCH_SMOKE=1`` for a tiny CI-friendly grid (no JSON record, no
floor).
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_table, provenance
from repro.api import Scenario
from repro.sweep import SweepSpec, marginals, run_sweep

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
FILES = 6 if SMOKE else 60
REQUESTS = 4 if SMOKE else 6
PROBABILITIES = (0.0, 0.05) if SMOKE else (
    0.0, 0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3,
)
SEEDS = (1, 2) if SMOKE else tuple(range(1, 13))
SEED = 0x1997
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"


def _catalogue() -> list[dict]:
    rng = random.Random(SEED)
    files = []
    for index in range(FILES):
        blocks = rng.randint(2, 6)
        files.append(
            {
                "name": f"f{index:02d}",
                "blocks": blocks,
                "latency": rng.randint(3 * blocks, 6 * blocks),
                "fault_budget": rng.randint(0, 2),
            }
        )
    return files


def _grid() -> SweepSpec:
    base = Scenario.from_dict(
        {
            "name": "solve-cache-grid",
            "files": _catalogue(),
            "workload": {"requests": REQUESTS, "horizon": 150, "seed": 7},
        }
    )
    return SweepSpec.from_dict(
        {
            "name": "bench-fault-grid",
            "base": base.to_dict(),
            "axes": [
                {"field": "faults.kind", "values": ["bernoulli"]},
                {"field": "faults.probability",
                 "values": list(PROBABILITIES)},
                {"field": "faults.seed", "values": list(SEEDS)},
            ],
        }
    )


def _run(tmp_path: Path, use_cache: bool):
    tag = "cached" if use_cache else "uncached"
    begin = time.perf_counter()
    result = run_sweep(
        _grid(),
        store_path=tmp_path / f"{tag}.runs.jsonl",
        cache_dir=(tmp_path / "solve-cache") if use_cache else None,
        use_cache=use_cache,
    )
    return result, time.perf_counter() - begin


def test_solve_cache_speedup_and_record(tmp_path):
    """The acceptance measurement: cache on vs. off over one grid."""
    spec = _grid()
    cells = spec.total_cells
    uncached, cold_elapsed = _run(tmp_path, use_cache=False)
    cached, warm_elapsed = _run(tmp_path, use_cache=True)

    # Identical grids, identical results - the cache changes timing
    # only, never output.
    assert [row["result"] for row in cached.rows] == [
        row["result"] for row in uncached.rows
    ]
    assert uncached.solves == cells
    assert cached.solves == 1 and cached.cache_hits == cells - 1

    speedup = cold_elapsed / warm_elapsed if warm_elapsed else float("inf")
    print_table(
        f"SWEEP: solve-cache on a {cells}-cell fault grid "
        f"({FILES}-file catalogue)",
        ["arm", "cells", "solves", "cache hits", "wall (s)", "speedup"],
        [
            ["cache off", cells, uncached.solves, 0,
             f"{cold_elapsed:.2f}", "1.0x"],
            ["cache on", cells, cached.solves, cached.cache_hits,
             f"{warm_elapsed:.2f}", f"{speedup:.1f}x"],
        ],
    )

    by_probability = marginals(
        cached.records(), "faults.probability", ["sim_miss_rate", "sim_p99"]
    )
    print_table(
        "SWEEP: miss rate / p99 vs. fault probability (cached arm)",
        ["p", "cells", "mean miss rate", "mean p99"],
        [
            [entry["faults.probability"], entry["cells"],
             f"{entry['mean_sim_miss_rate']:.4f}"
             if entry["mean_sim_miss_rate"] is not None else "-",
             f"{entry['mean_sim_p99']:.1f}"
             if entry["mean_sim_p99"] is not None else "-"]
            for entry in by_probability
        ],
    )

    if SMOKE:  # smoke asserts correctness only, never timing
        return
    assert speedup >= 5.0, (
        f"expected the solve-cache to be >= 5x faster on a "
        f"design-dominated grid, measured {speedup:.1f}x "
        f"({cold_elapsed:.2f}s -> {warm_elapsed:.2f}s)"
    )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "sweep",
                "grid": {
                    "files": FILES,
                    "cells": cells,
                    "axes": ["faults.probability", "faults.seed"],
                    "workload_requests": REQUESTS,
                },
                "provenance": provenance(),
                "cache_off": {
                    "wall_seconds": round(cold_elapsed, 3),
                    "solves": uncached.solves,
                },
                "cache_on": {
                    "wall_seconds": round(warm_elapsed, 3),
                    "solves": cached.solves,
                    "cache_hits": cached.cache_hits,
                },
                "speedup": round(speedup, 2),
                "miss_rate_by_probability": [
                    {
                        "probability": entry["faults.probability"],
                        "mean_miss_rate": entry["mean_sim_miss_rate"],
                        "mean_p99": entry["mean_sim_p99"],
                    }
                    for entry in by_probability
                ],
            },
            indent=2,
        )
        + "\n"
    )


def test_resume_completes_a_killed_sweep(tmp_path):
    """Resume integrity at bench scale: truncate the store mid-grid and
    re-invoke; only the missing cells run and the rows converge."""
    spec = _grid()
    store = tmp_path / "resume.runs.jsonl"
    cache = tmp_path / "resume-cache"
    full = run_sweep(spec, store_path=store, cache_dir=cache)
    keep = spec.total_cells // 3
    lines = store.read_text(encoding="utf-8").splitlines()[:keep]
    store.write_text("\n".join(lines) + "\n", encoding="utf-8")
    resumed = run_sweep(
        spec, store_path=store, cache_dir=cache, resume=True
    )
    assert resumed.resumed == keep
    assert resumed.executed == spec.total_cells - keep
    assert resumed.solves == 0  # the design was already cached
    assert [row["result"] for row in resumed.rows] == [
        row["result"] for row in full.rows
    ]
