"""Experiment CERTIFICATE: what an exact worst-case delay table costs.

``BroadcastEngine.delay_table()`` reads each worst case off the file's
block rotation (:mod:`repro.sim.delay`): the services after which ``j``
losses can no longer stop a client are a closed form, so a table entry
costs one walk over the phases where the delay can change - slot 0
and the slot after each service, of every carrier of the file, and
``tuning_cost`` slots before that, once per carrier the client may be
tuned to, where the file has several carriers and re-tuning costs.

This bench times whole tables, the fastest of several repetitions, on

* ``examples/scenario_awacs_temporal.json`` (one channel, a 122,880-slot
  cycle, 19,992 services) at ``delay_errors`` 0, 1 and 2;
* ``examples/scenario_multichannel.json`` (three replicated channels,
  tuning cost 2) at ``delay_errors`` 2, with the largest count of
  (phase, tuned carrier) pairs any file walks.

Each table must give its pinned rows.  Results land in
``BENCH_certificate.json`` at the repo root, stamped with their
provenance.  Set ``REPRO_BENCH_SMOKE=1`` for one repetition of each, no
timing floor and no JSON record.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import print_table, provenance
from repro.api import Scenario
from repro.api.engine import BroadcastEngine
from repro.sim.delay import _chosen, _Rotation

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"
RESULT_PATH = ROOT / "BENCH_certificate.json"
REPETITIONS = 1 if SMOKE else 5

#: Worst added delay per file at each fault count, in slots.
AWACS_TEMPORAL_ROWS = {
    "air-tracks": [0, 10, 15],
    "ground-tracks": [0, 80, 160],
    "terrain": [0, 5120, 10240],
}


def cases() -> list[tuple[str, Scenario]]:
    """``(example file, scenario)`` for each timed table."""
    temporal = Scenario.from_file(EXAMPLES / "scenario_awacs_temporal.json")
    multichannel = Scenario.from_file(EXAMPLES / "scenario_multichannel.json")
    return [
        *(
            ("scenario_awacs_temporal.json", with_errors(temporal, errors))
            for errors in (0, 1, 2)
        ),
        ("scenario_multichannel.json", with_errors(multichannel, 2)),
    ]


def with_errors(scenario: Scenario, errors: int) -> Scenario:
    return Scenario.from_dict(dict(scenario.to_dict(), delay_errors=errors))


def largest_phase_count(engine: BroadcastEngine) -> int:
    """The most (phase, tuned carrier) pairs any file's entry walks."""
    design = engine.design()
    channels = getattr(design, "channel_set", None)
    tuning_cost = (
        0 if channels is None else engine.scenario.channels.tuning_cost
    )
    counts = []
    for spec in engine.scenario.files:
        programs = (
            [design.program]
            if channels is None
            else [
                channels.programs[channel]
                for channel in channels.channels_for(spec.name)
            ]
        )
        rotations = [
            _Rotation(program, spec.name, spec.blocks, True)
            for program in programs
        ]
        counts.append(sum(1 for _ in _chosen(rotations, tuning_cost)))
    return max(counts)


def test_delay_tables_and_record():
    rows = []
    for example, scenario in cases():
        design = BroadcastEngine(scenario).design()
        best, table = float("inf"), ()
        for _ in range(REPETITIONS):
            engine = BroadcastEngine(scenario, design=design)
            begin = time.perf_counter()
            table = engine.delay_table()
            best = min(best, time.perf_counter() - begin)
        errors = scenario.delay_errors
        if example == "scenario_awacs_temporal.json":
            assert {
                name: [e.delay for e in table if e.file == name]
                for name in AWACS_TEMPORAL_ROWS
            } == {
                name: delays[: errors + 1]
                for name, delays in AWACS_TEMPORAL_ROWS.items()
            }
        rows.append({
            "scenario": example,
            "channels": 1 if scenario.channels is None
            else scenario.channels.count,
            "delay_errors": errors,
            "entries": len(table),
            "max_delay": max(entry.delay for entry in table),
            "largest_phase_count": largest_phase_count(
                BroadcastEngine(scenario, design=design)
            ),
            "repetitions": REPETITIONS,
            "delay_table_ms": round(best * 1e3, 3),
        })

    print_table(
        "CERTIFICATE: fastest delay_table() (ms)",
        ["scenario", "channels", "errors", "entries", "phases", "ms"],
        [
            [row["scenario"], row["channels"], row["delay_errors"],
             row["entries"], row["largest_phase_count"],
             f"{row['delay_table_ms']:.2f}"]
            for row in rows
        ],
    )
    if SMOKE:  # smoke checks the rows, never timing
        return
    one_loss = next(
        row for row in rows
        if row["scenario"] == "scenario_awacs_temporal.json"
        and row["delay_errors"] == 1
    )
    assert one_loss["delay_table_ms"] < 1000, one_loss
    RESULT_PATH.write_text(
        json.dumps(
            {"bench": "certificate", "provenance": provenance(),
             "tables": rows},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
