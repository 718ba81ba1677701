"""Experiment TRAFFIC: sustained open-loop load on the multidisk baseline.

The traffic subsystem (:mod:`repro.traffic`) simulates populations of
client sessions - arrival processes, think times, streaming metrics -
advancing service-to-service over the occurrence index.  This bench
measures the *sustained simulated request rate* and tail latency on the
multidisk baseline catalogue (the same hierarchy as
``bench_multidisk_baseline.py``) under three channels:

* the failure-free channel (amortized: one real retrieval per
  ``(file, phase)`` of the periodic program),
* Bernoulli losses (every retrieval computed for real, batched fault
  queries),
* Gilbert burst losses (fault storms stretching the tail).

Both engines run every channel: the per-client object engine
(``engine="object"``) and the vectorized structure-of-arrays engine
(``engine="soa"``, :mod:`repro.traffic.engine_soa`).  Their metrics
must agree exactly - the engines differ only in speed.  Acceptance
floors (full configuration only; smoke asserts correctness, not speed):

* object engine, failure-free: >= 10k sustained simulated requests/sec
  (the historical floor);
* SoA engine, failure-free: >= 1,475,950 req/s - ten times the 147,595
  req/s the object engine recorded on this workload;
* SoA engine, burst channel: >= 3x the object engine *in the same run*
  (a ratio inside one run is robust to host-speed drift).

Results land in ``BENCH_traffic.json`` at the repo root, stamped with
their provenance (commit, CPU count, Python and numpy versions):
per-channel throughput for both engines, and a load sweep over
population sizes up to one million clients with a peak-RSS column (the
SoA engine's block-bounded memory is the point of the million-client
row).  Set ``REPRO_BENCH_SMOKE=1`` for a CI-friendly configuration: tiny
populations for the channel grid, plus a 100k-client SoA run under a
wall-clock budget (no JSON record, no throughput floors).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_table, provenance
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from repro.sim.metrics import LatencySummary
from repro.traffic import TrafficSpec, simulate_traffic

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CLIENTS = 200 if SMOKE else 10_000
REQUESTS_PER_CLIENT = 2 if SMOKE else 10
DURATION = 5_000 if SMOKE else 200_000
SEED = 1997
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_traffic.json"

#: The object engine's recorded failure-free rate on this workload; the
#: SoA floor is ten times it.
OBJECT_BASELINE_RPS = 147_595
SOA_FLOOR_RPS = 10 * OBJECT_BASELINE_RPS

#: Faulty-channel floor: SoA burst throughput over the object engine's,
#: both measured in the same run.
BURST_SPEEDUP_FLOOR = 3.0

#: Wall-clock budget for the smoke-mode 100k-client SoA run (seconds) -
#: generous for CI machines; the engine finishes it in low single digits.
SMOKE_BUDGET_SECONDS = 60.0

FILES = [
    ("hot", 2), ("warm-1", 3), ("warm-2", 3), ("cold-1", 5), ("cold-2", 6),
]
DEMAND = {"hot": 20.0, "warm-1": 5.0, "warm-2": 4.0,
          "cold-1": 1.0, "cold-2": 0.5}
SIZES = dict(FILES)
#: Latency budgets in slots: generous enough that the failure-free
#: channel always meets them, tight enough that fault storms miss.
DEADLINES = {"hot": 30, "warm-1": 45, "warm-2": 45,
             "cold-1": 75, "cold-2": 90}
LEVELS = (4, 2, 1)

CHANNELS = [
    ("none", {"kind": "none"}),
    ("bernoulli p=0.05", {"kind": "bernoulli", "probability": 0.05,
                          "seed": 3}),
    ("burst 0.02/0.25", {"kind": "burst", "p_enter": 0.02,
                         "p_exit": 0.25, "seed": 3}),
]

ENGINES = ("object", "soa")


def _world():
    config = config_from_demand(FILES, DEMAND, levels=LEVELS)
    program = build_multidisk_program(config)
    disk_of = {
        name: f"disk-{level}"
        for level, (_, disk_files) in enumerate(config.disks)
        for name, _ in disk_files
    }
    return program, disk_of


def _spec(clients=CLIENTS, requests=REQUESTS_PER_CLIENT):
    return TrafficSpec(
        clients=clients,
        duration=DURATION,
        arrival="poisson",
        popularity="zipf",
        zipf_skew=1.2,
        requests_per_client=requests,
        think_time=10,
        seed=SEED,
    )


def _faults(payload):
    from repro.api.scenario import FaultSpec

    return FaultSpec.from_dict(payload)


def _peak_rss_mb() -> float:
    """The process's high-water RSS in MiB (ru_maxrss is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return round(peak / 1024, 1)


def _row(label, engine, result):
    summary = result.summary
    return [
        label, engine,
        f"{result.requests:,}",
        f"{result.requests_per_sec:,.0f}",
        f"{summary.p50:.0f}", f"{summary.p99:.0f}",
        f"{result.miss_rate:.4f}", f"{result.abort_rate:.4f}",
    ]


def test_sustained_traffic_and_record():
    """The acceptance measurement: both engines agree exactly on every
    channel, the object engine sustains >= 10k req/s failure-free, and
    the vectorized engine sustains >= 10x the recorded object rate."""
    program, disk_of = _world()
    program.index  # shared occurrence tables, built outside the timing
    rows = []
    records = {}
    throughput = {}
    for label, payload in CHANNELS:
        fingerprints = {}
        for engine in ENGINES:
            result = simulate_traffic(
                program,
                [name for name, _ in FILES],
                _spec(),
                file_sizes=SIZES,
                deadlines=DEADLINES,
                faults=_faults(payload),
                engine=engine,
            )
            assert result.requests == CLIENTS * REQUESTS_PER_CLIENT
            summary = result.summary
            # Merging the run's one exact histogram summary must give
            # back the summary the result reports.
            shards = [result.metrics.summary()]
            assert LatencySummary.merge(shards) == summary
            fingerprints[engine] = (
                summary,
                result.metrics.counts,
                dict(result.metrics.requests_by_file),
            )
            rows.append(_row(label, engine, result))
            throughput[label, engine] = result.requests_per_sec
            records.setdefault(label, {
                "requests": result.requests,
                "p50": summary.p50,
                "p99": summary.p99,
                "mean": round(summary.mean, 2),
                "worst": summary.worst,
                "deadline_miss_rate": round(result.miss_rate, 4),
                "abort_rate": round(result.abort_rate, 4),
                "hits_by_disk": result.metrics.hits_by(disk_of),
            })
            records[label][f"requests_per_sec_{engine}"] = round(
                result.requests_per_sec
            )
        # The engines are interchangeable: same histogram, same tallies.
        assert fingerprints["soa"] == fingerprints["object"]
        records[label]["speedup"] = round(
            throughput[label, "soa"] / throughput[label, "object"], 1
        )
    print_table(
        f"TRAFFIC: {CLIENTS:,} clients x {REQUESTS_PER_CLIENT} requests "
        f"(multidisk baseline, poisson arrivals, zipf 1.2)",
        ["channel", "engine", "requests", "req/s", "p50", "p99",
         "miss rate", "abort rate"],
        rows,
    )
    if SMOKE:  # smoke asserts correctness only, never timing
        return
    floor = throughput["none", "object"]
    assert floor >= 10_000, (
        f"expected >= 10k sustained req/s on the failure-free baseline, "
        f"measured {floor:,.0f}"
    )
    soa_rate = throughput["none", "soa"]
    assert soa_rate >= SOA_FLOOR_RPS, (
        f"expected the SoA engine to sustain >= {SOA_FLOOR_RPS:,} req/s "
        f"failure-free (10x the recorded object-engine rate), measured "
        f"{soa_rate:,.0f}"
    )
    burst = "burst 0.02/0.25"
    burst_speedup = throughput[burst, "soa"] / throughput[burst, "object"]
    assert burst_speedup >= BURST_SPEEDUP_FLOOR, (
        f"expected the SoA engine to sustain >= {BURST_SPEEDUP_FLOOR:.0f}x "
        f"the object engine on the burst channel, measured "
        f"{burst_speedup:.1f}x"
    )

    sweep = []
    sweep_channel = {"kind": "bernoulli", "probability": 0.05, "seed": 3}
    for clients, requests, engine, payload in [
        (1_000, 4, "object", sweep_channel),
        (1_000, 4, "soa", sweep_channel),
        (10_000, 4, "object", sweep_channel),
        (10_000, 4, "soa", sweep_channel),
        (50_000, 4, "soa", sweep_channel),
        (1_000_000, 1, "soa", {"kind": "none"}),
    ]:
        result = simulate_traffic(
            program,
            [name for name, _ in FILES],
            _spec(clients=clients, requests=requests),
            file_sizes=SIZES,
            deadlines=DEADLINES,
            faults=_faults(payload),
            engine=engine,
        )
        sweep.append(
            {
                "clients": clients,
                "engine": engine,
                "channel": payload["kind"],
                "requests": result.requests,
                "requests_per_sec": round(result.requests_per_sec),
                "p99": result.summary.p99,
                "deadline_miss_rate": round(result.miss_rate, 4),
                "peak_rss_mb": _peak_rss_mb(),
            }
        )
    print_table(
        "TRAFFIC: load sweep (bernoulli p=0.05 except the "
        "million-client failure-free row)",
        ["clients", "engine", "channel", "requests", "req/s", "p99",
         "miss rate", "peak RSS MiB"],
        [
            [f"{entry['clients']:,}", entry["engine"], entry["channel"],
             f"{entry['requests']:,}",
             f"{entry['requests_per_sec']:,}", f"{entry['p99']:.0f}",
             f"{entry['deadline_miss_rate']:.4f}",
             f"{entry['peak_rss_mb']:,.1f}"]
            for entry in sweep
        ],
    )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "traffic",
                "workload": {
                    "program": "multidisk baseline (levels 4/2/1)",
                    "clients": CLIENTS,
                    "requests_per_client": REQUESTS_PER_CLIENT,
                    "duration": DURATION,
                    "arrival": "poisson",
                    "popularity": "zipf(1.2)",
                    "think_time": 10,
                    "seed": SEED,
                },
                "provenance": provenance(),
                "soa_floor_requests_per_sec": SOA_FLOOR_RPS,
                "burst_speedup_floor": BURST_SPEEDUP_FLOOR,
                "channels": records,
                "load_sweep": sweep,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def test_popularity_cdf_setup_is_catalogue_sized():
    """Micro-assert for the memoized popularity CDFs: population setup
    computes each distinct (kind, catalogue-size, shape) CDF exactly
    once, however many clients draw from it - setup is O(catalogue),
    not O(clients)."""
    from repro.traffic.arrivals import _popularity_cdf

    program, _ = _world()
    catalogue = [name for name, _ in FILES]
    _popularity_cdf.cache_clear()
    for clients in (50, 500):
        simulate_traffic(
            program,
            catalogue,
            _spec(clients=clients, requests=1),
            file_sizes=SIZES,
            deadlines=DEADLINES,
            engine="soa",
        )
    info = _popularity_cdf.cache_info()
    assert info.misses == 1, (
        f"expected one CDF construction for one (kind, size, shape), "
        f"saw {info.misses}"
    )
    assert info.hits >= 1  # the second population reused the first's CDF


@pytest.mark.skipif(
    not SMOKE, reason="the full bench's load sweep covers this scale"
)
def test_soa_smoke_100k_clients_under_budget():
    """CI smoke: 100k clients through the SoA engine inside a hard
    wall-clock budget, with the metrics invariants intact."""
    program, _ = _world()
    spec = _spec(clients=100_000, requests=1)
    begin = time.perf_counter()
    result = simulate_traffic(
        program,
        [name for name, _ in FILES],
        spec,
        file_sizes=SIZES,
        deadlines=DEADLINES,
        engine="soa",
    )
    elapsed = time.perf_counter() - begin
    assert result.requests == 100_000
    assert result.completions + result.aborts == result.requests
    assert elapsed < SMOKE_BUDGET_SECONDS, (
        f"100k-client SoA smoke took {elapsed:.1f}s "
        f"(budget {SMOKE_BUDGET_SECONDS:.0f}s)"
    )
