"""Experiment RTDB: versioned retrieval throughput and transaction load.

The rtdb layer's versioned retrieval (:mod:`repro.rtdb.updates`) was
rewritten from a slot-by-slot scan into an occurrence walker over the
program index with batched fault queries - the same treatment the plain
retrieval client received in the simulation-core rewrite.  This bench
measures that rewrite two ways on a multidisk hierarchy:

* **before/after retrieval throughput** - the slot-walking executable
  spec (:mod:`tests.oracles.rtdb_reference`) against the production walker over
  identical phases, on the failure-free channel and under Bernoulli
  losses.  The acceptance floor is a >= 5x fault-free speedup (full
  configuration only; the smoke configuration asserts bit-identical
  outcomes, not speed).
* **transaction-mix load sweep** - populations of transaction sessions
  (:func:`repro.traffic.simulate_traffic` with a
  :class:`repro.rtdb.TemporalSpec`) at increasing client counts, run on
  both traffic engines with identical metrics asserted, and a sweep
  over update periods showing the feasibility frontier: faster
  re-dissemination keeps values fresh until the period undercuts the
  retrieval window, where torn reads abort everything.

Results land in ``BENCH_rtdb.json`` at the repo root.  Set
``REPRO_BENCH_SMOKE=1`` for a tiny CI-friendly configuration (no JSON
record, no floors).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import print_table, provenance
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from repro.rtdb import (
    TemporalItemSpec,
    TemporalSpec,
    TransactionSpec,
    UpdatingServer,
    retrieve_versioned,
)
from tests.oracles import rtdb_reference as reference
from repro.sim.faults import BernoulliFaults
from repro.traffic import TrafficSpec, simulate_traffic

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SEED = 1997
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_rtdb.json"

#: A three-level hierarchy of ten files - wide enough that any one
#: file's services are a small fraction of the air time, which is the
#: regime broadcast disks live in (and the regime where slot-walking
#: pays for every other file's slots).
FILES = [
    ("hot-1", 2), ("hot-2", 2),
    ("warm-1", 3), ("warm-2", 3), ("warm-3", 4),
    ("cold-1", 4), ("cold-2", 5), ("cold-3", 5), ("cold-4", 6),
    ("cold-5", 6),
]
DEMAND = {
    "hot-1": 24.0, "hot-2": 18.0,
    "warm-1": 6.0, "warm-2": 5.0, "warm-3": 4.0,
    "cold-1": 1.5, "cold-2": 1.0, "cold-3": 0.8, "cold-4": 0.5,
    "cold-5": 0.4,
}
SIZES = dict(FILES)
LEVELS = (4, 2, 1)

#: Update periods in slots, sized comfortably above each file's
#: collection window so retrievals complete (the load sweep explores
#: what happens when they are not).
PERIODS = {
    "hot-1": 64, "hot-2": 64,
    "warm-1": 128, "warm-2": 128, "warm-3": 160,
    "cold-1": 320, "cold-2": 400, "cold-3": 400, "cold-4": 480,
    "cold-5": 480,
}

PHASE_STRIDE = 3
PHASE_SPAN = 600 if SMOKE else 6_000


def _fault_spec(payload):
    from repro.api.scenario import FaultSpec

    return FaultSpec.from_dict(payload)


def _program():
    config = config_from_demand(FILES, DEMAND, levels=LEVELS)
    program = build_multidisk_program(config)
    program.index  # shared occurrence tables, built outside the timing
    return program


def _throughput(fn, program, server, phases, faults=None) -> float:
    # One model instance per arm, as production consumers hold one:
    # decisions are deterministic and memoized per (seed, slot), so the
    # arms see the same channel and amortize it the same way.
    model = faults() if faults is not None else None
    begin = time.perf_counter()
    for name, m in FILES:
        for phase in phases:
            fn(program, server, name, m, start=phase, faults=model)
    return len(FILES) * len(phases) / (time.perf_counter() - begin)


def test_versioned_retrieval_speedup_and_record():
    """The acceptance measurement: the occurrence-walking versioned
    retrieval must beat the slot-walking baseline >= 5x fault-free on
    the multidisk hierarchy, bit-identically."""
    program = _program()
    server = UpdatingServer(PERIODS)
    phases = list(range(0, PHASE_SPAN, PHASE_STRIDE))

    # Bit-identical first: the speedup must not buy a single changed
    # field (version, latency, age, torn discards).
    model = BernoulliFaults(0.05, seed=3)
    for name, m in FILES:
        for phase in range(0, 3 * program.data_cycle_length, 11):
            fast = retrieve_versioned(
                program, server, name, m, start=phase, faults=model
            )
            slow = reference.retrieve_versioned(
                program, server, name, m, start=phase, faults=model
            )
            assert fast == slow, (name, phase)

    arms = {}
    rows = []
    for label, faults in (
        ("fault-free", None),
        ("bernoulli p=0.05",
         lambda: BernoulliFaults(0.05, seed=3)),
    ):
        after = _throughput(
            retrieve_versioned, program, server, phases, faults
        )
        before = _throughput(
            reference.retrieve_versioned, program, server, phases, faults
        )
        arms[label] = {
            "slot_walker_per_sec": round(before),
            "occurrence_walker_per_sec": round(after),
            "speedup": round(after / before, 2),
        }
        rows.append(
            [label, f"{before:,.0f}", f"{after:,.0f}",
             f"{after / before:.1f}x"]
        )
    print_table(
        f"RTDB: versioned retrieval, {len(FILES)} files x "
        f"{len(phases)} phases (multidisk {LEVELS})",
        ["channel", "slot walker/s", "occ walker/s", "speedup"],
        rows,
    )
    if not SMOKE:
        speedup = arms["fault-free"]["speedup"]
        assert speedup >= 5.0, (
            f"expected >= 5x fault-free versioned-retrieval speedup, "
            f"measured {speedup:.2f}x"
        )

    # ------------------------------------------------------------------
    # Transaction-mix load sweep
    # ------------------------------------------------------------------
    temporal = TemporalSpec(
        # One slot = 1 ms, budgets = deadline slots directly.
        slot_ms=1,
        items=tuple(
            TemporalItemSpec(
                name, blocks=m, max_age_ms=12 * PERIODS[name]
            )
            for name, m in FILES
        ),
        update_periods=PERIODS,
        transactions=(
            TransactionSpec("track", ["hot-1"], 60, weight=6),
            TransactionSpec(
                "fuse", ["hot-1", "hot-2", "warm-1"], 240, weight=3
            ),
            TransactionSpec(
                "survey", ["warm-2", "cold-1", "cold-4"], 900, weight=1
            ),
        ),
    )
    deadlines = {
        name: temporal.max_age_slots()[name] for name, _ in FILES
    }
    load_points = (100,) if SMOKE else (1_000, 5_000, 20_000)
    load_sweep = []
    for clients in load_points:
        runs = {
            engine: simulate_traffic(
                program,
                [name for name, _ in FILES],
                TrafficSpec(
                    clients=clients,
                    duration=max(2_000, clients * 10),
                    requests_per_client=4,
                    think_time=20,
                    seed=SEED,
                ),
                file_sizes=SIZES,
                deadlines=deadlines,
                temporal=temporal,
                faults=_fault_spec(
                    {"kind": "bernoulli", "probability": 0.02, "seed": 3}
                ),
                engine=engine,
            )
            for engine in ("object", "soa")
        }
        m = runs["object"].metrics
        # The vectorized engine must not buy its speed with a single
        # changed observable: every accumulator field, histograms too.
        assert vars(runs["soa"].metrics) == vars(m), clients
        load_sweep.append(
            {
                "clients": clients,
                "requests": m.requests,
                "requests_per_sec": round(runs["object"].requests_per_sec),
                "soa_requests_per_sec": round(
                    runs["soa"].requests_per_sec
                ),
                "consistency_rate": round(m.consistency_rate, 4),
                "deadline_miss_rate": round(m.deadline_miss_rate, 4),
                "abort_rate": round(m.abort_rate, 4),
                "mean_age": round(m.mean_age, 1),
                "torn_discards": m.torn_discards,
            }
        )
    print_table(
        "RTDB: transaction-mix load sweep (bernoulli p=0.02)",
        ["clients", "requests", "object req/s", "soa req/s",
         "consistency", "deadline miss", "abort", "mean age"],
        [
            [f"{e['clients']:,}", f"{e['requests']:,}",
             f"{e['requests_per_sec']:,}",
             f"{e['soa_requests_per_sec']:,}",
             f"{e['consistency_rate']:.4f}",
             f"{e['deadline_miss_rate']:.4f}",
             f"{e['abort_rate']:.4f}", f"{e['mean_age']:.0f}"]
            for e in load_sweep
        ],
    )
    for entry in load_sweep:
        assert entry["abort_rate"] < 0.05, entry

    # The feasibility frontier, both cliffs: periods far above the
    # freshness budget leave only stale values on the air (consistency
    # collapses), while periods below the collection window kill every
    # version before it can be read (torn reads abort everything).
    frontier = []
    scales = (1.0, 0.05) if SMOKE else (32.0, 16.0, 1.0, 0.25, 0.05)
    for scale in scales:
        periods = {
            name: max(1, int(period * scale))
            for name, period in PERIODS.items()
        }
        scaled = TemporalSpec(
            slot_ms=1,
            items=temporal.items,
            update_periods=periods,
            transactions=temporal.transactions,
        )
        result = simulate_traffic(
            program,
            [name for name, _ in FILES],
            TrafficSpec(
                clients=200 if SMOKE else 2_000,
                duration=20_000,
                requests_per_client=2,
                seed=SEED,
            ),
            file_sizes=SIZES,
            deadlines=deadlines,
            temporal=scaled,
        )
        m = result.metrics
        frontier.append(
            {
                "period_scale": scale,
                "consistency_rate": round(m.consistency_rate, 4),
                "abort_rate": round(m.abort_rate, 4),
                "mean_age": round(m.mean_age, 1),
                "torn_per_request": round(
                    m.torn_discards / m.requests, 2
                ),
            }
        )
    print_table(
        "RTDB: update-period feasibility frontier (fault-free)",
        ["period scale", "consistency", "abort rate", "mean age",
         "torn/request"],
        [
            [f"{e['period_scale']:.3f}", f"{e['consistency_rate']:.4f}",
             f"{e['abort_rate']:.4f}", f"{e['mean_age']:.0f}",
             f"{e['torn_per_request']:.2f}"]
            for e in frontier
        ],
    )

    if SMOKE:  # smoke asserts correctness only, never timing
        return
    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "rtdb",
                "workload": {
                    "program": (
                        f"multidisk {len(FILES)} files, levels "
                        f"{'/'.join(map(str, LEVELS))}"
                    ),
                    "data_cycle": program.data_cycle_length,
                    "phases": len(phases),
                    "update_periods": PERIODS,
                    "seed": SEED,
                },
                "provenance": provenance(),
                "versioned_retrieval": arms,
                "transaction_load_sweep": load_sweep,
                "update_period_frontier": frontier,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
