"""Experiment SIM-THROUGHPUT: occurrence-indexed core vs slot walking.

The simulation stack was restructured around :class:`repro.bdisk.ProgramIndex`:
clients jump occurrence-to-occurrence instead of scanning every slot,
fault decisions are batched, and ``simulate_requests`` amortizes
fault-free retrievals per phase of the periodic program.  This bench
quantifies the speedup on the multidisk baseline workload (the same
catalogue, demand profile, and Zipf stream as
``bench_multidisk_baseline.py``, scaled to heavy traffic) against the
seed slot-walking implementations preserved in
:mod:`tests.oracles.sim_reference` - after first asserting, request by request,
that both paths produce bit-identical retrievals.

Results are recorded in ``BENCH_sim_throughput.json`` at the repo root,
stamped with their provenance (commit, CPU count, Python and numpy
versions), so the speedup is tracked in the bench trajectory.  Set
``REPRO_BENCH_SMOKE=1`` for a tiny CI-friendly configuration (no JSON
record, no speedup floor - machines vary; correctness is still
asserted).
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_table, provenance
from repro.bdisk.file import FileSpec
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from tests.oracles import sim_reference as reference
from repro.sim.client import retrieve
from repro.sim.faults import BernoulliFaults
from repro.sim.runner import simulate_requests
from repro.sim.workload import request_stream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REQUESTS = 400 if SMOKE else 10_000
HORIZON = 600
SEED = 77
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sim_throughput.json"

FILES = [
    FileSpec("hot", 2, 8),
    FileSpec("warm-1", 3, 16),
    FileSpec("warm-2", 3, 20),
    FileSpec("cold-1", 5, 40),
    FileSpec("cold-2", 6, 60),
]
DEMAND = {"hot": 20.0, "warm-1": 5.0, "warm-2": 4.0,
          "cold-1": 1.0, "cold-2": 0.5}
SIZES = {f.name: f.blocks for f in FILES}


def _world():
    program = build_multidisk_program(
        config_from_demand(
            [(f.name, f.blocks) for f in FILES], DEMAND, levels=(4, 2, 1)
        )
    )
    requests = request_stream(
        random.Random(SEED), FILES,
        count=REQUESTS, horizon=HORIZON, zipf_skew=1.2,
    )
    return program, requests


def _throughput(elapsed: float, retrievals) -> tuple[float, float]:
    """(requests/sec, simulated slots/sec) for one timed replay."""
    slots = sum(r.latency for r in retrievals if r.latency is not None)
    return len(retrievals) / elapsed, slots / elapsed


def _timed_naive(program, requests, faults_factory):
    faults = faults_factory()
    begin = time.perf_counter()
    out = [
        reference.retrieve(
            program, r.file, SIZES[r.file],
            start=r.time, need_distinct=False, faults=faults,
        )
        for r in requests
    ]
    return time.perf_counter() - begin, out


def test_retrieve_throughput():
    """Single-client path: occurrence walking vs slot walking."""
    program, requests = _world()
    program.index  # build outside the timed regions
    rows = []
    speedups = {}
    for label, faults_factory in [
        ("none", lambda: None),
        ("bernoulli p=0.05", lambda: BernoulliFaults(0.05, seed=3)),
    ]:
        naive_time, naive_out = _timed_naive(
            program, requests, faults_factory
        )
        faults = faults_factory()
        begin = time.perf_counter()
        indexed_out = [
            retrieve(
                program, r.file, SIZES[r.file],
                start=r.time, need_distinct=False, faults=faults,
            )
            for r in requests
        ]
        indexed_time = time.perf_counter() - begin
        assert indexed_out == naive_out  # bit-identical retrievals
        naive_rps, naive_sps = _throughput(naive_time, naive_out)
        indexed_rps, indexed_sps = _throughput(indexed_time, indexed_out)
        speedups[label] = naive_time / indexed_time
        rows.append([
            label,
            f"{naive_rps:,.0f}", f"{indexed_rps:,.0f}",
            f"{naive_sps:,.0f}", f"{indexed_sps:,.0f}",
            f"{naive_time / indexed_time:.1f}x",
        ])
    print_table(
        f"SIM-THROUGHPUT: retrieve(), {REQUESTS} requests "
        f"(multidisk baseline workload)",
        ["faults", "naive req/s", "indexed req/s",
         "naive slots/s", "indexed slots/s", "speedup"],
        rows,
    )
    if not SMOKE:  # smoke asserts correctness only, never timing
        assert all(s > 1.0 for s in speedups.values())


def test_runner_throughput_and_record():
    """Request-serving path: simulate_requests vs the seed loop.

    This is the acceptance measurement: >= 10x request throughput on
    the multidisk baseline workload (full configuration only - the
    smoke configuration asserts correctness, not speed).
    """
    program, requests = _world()
    program.index
    naive_time, naive_out = _timed_naive(program, requests, lambda: None)

    begin = time.perf_counter()
    result = simulate_requests(
        program, requests, file_sizes=SIZES, need_distinct=False
    )
    indexed_time = time.perf_counter() - begin
    assert list(result.retrievals) == naive_out  # bit-identical

    naive_rps, naive_sps = _throughput(naive_time, naive_out)
    indexed_rps, indexed_sps = _throughput(indexed_time, result.retrievals)
    speedup = naive_time / indexed_time
    print_table(
        f"SIM-THROUGHPUT: simulate_requests, {REQUESTS} requests "
        f"(multidisk baseline workload)",
        ["path", "req/s", "slots/s", "speedup"],
        [
            ["seed slot-walking loop", f"{naive_rps:,.0f}",
             f"{naive_sps:,.0f}", "1.0x"],
            ["occurrence-indexed runner", f"{indexed_rps:,.0f}",
             f"{indexed_sps:,.0f}", f"{speedup:.1f}x"],
        ],
    )
    if SMOKE:  # correctness was asserted above; no timing floor
        return
    assert speedup >= 10.0, (
        f"expected >= 10x request throughput, measured {speedup:.1f}x"
    )
    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "sim_throughput",
                "workload": {
                    "program": "multidisk baseline (levels 4/2/1)",
                    "requests": REQUESTS,
                    "horizon": HORIZON,
                    "zipf_skew": 1.2,
                    "seed": SEED,
                    "faults": "none",
                },
                "provenance": provenance(),
                "naive": {
                    "requests_per_sec": round(naive_rps),
                    "slots_per_sec": round(naive_sps),
                },
                "indexed": {
                    "requests_per_sec": round(indexed_rps),
                    "slots_per_sec": round(indexed_sps),
                },
                "speedup": round(speedup, 1),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
