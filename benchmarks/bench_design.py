"""Experiment DESIGN: what one pinwheel design costs, layer by layer.

Every broadcast program is designed by pinwheel scheduling, and a design
is paid again at every scenario setup, every solve-cache miss of a sweep
and every re-solve of the live server.  This bench times three designs
end to end, ``BroadcastEngine(scenario).design()``, and splits each into
the layers it pays for:

* ``rank`` - ranking the double reduction's candidate bases;
* ``allocate`` - specializing onto each ranked base and handing out
  residue classes until one base fits;
* ``verify`` - the exact window check of every pinwheel condition on a
  fresh schedule;
* ``index_build`` - the program's occurrence index, which a design no
  longer builds (a program's first retrieval does); kept to show what
  that first retrieval pays;
* ``min_distinct`` - each file's distinct-block fault-tolerance check:
  one sparsest-window service count per file, since rotation makes
  ``k`` services carry ``min(k, n)`` distinct blocks.

Each layer runs alone on the inputs its design used, and the staged
pieces must reproduce the design's schedule.  The layers need not sum
to the total: bandwidth planning, building the schedule from its
residue classes and the program itself are the difference.  Times are
the fastest of several repetitions, in milliseconds.

The designs are ``examples/scenario_multichannel.json`` (the scenario
of the e2e ``temporal-quorum`` workload: three replicated channels,
one solve), ``examples/scenario_awacs_temporal.json`` (a 122,880-slot
cycle) and the three 40-file designs of the e2e ``sweep-grid``
workload (its catalogue with ``files.0.fault_budget`` in 0, 1, 2),
summed.  Results land in ``BENCH_design.json`` at the repo root,
stamped with their provenance.  Set ``REPRO_BENCH_SMOKE=1`` for one
repetition of each and no JSON record.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_table, provenance
from repro.api import Scenario
from repro.api.engine import BroadcastEngine
from repro.bdisk.bandwidth import induced_system
from repro.bdisk.program import BroadcastProgram
from repro.bdisk.program_index import ProgramIndex
from repro.core.conditions import PinwheelCondition
from repro.core.double_reduction import (
    _cycle_length,
    allocate_double,
    ranked_bases,
    specialize_double,
)
from repro.core.schedule import Schedule
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = ROOT / "BENCH_design.json"
LAYERS = ("rank", "allocate", "verify", "index_build", "min_distinct")


def sweep_grid_catalogue(budget: int) -> list[dict]:
    """The e2e sweep-grid catalogue with ``files.0.fault_budget`` set."""
    rng = random.Random(0x1997)
    catalogue = []
    for index in range(40):
        blocks = rng.randint(2, 6)
        catalogue.append({
            "name": f"f{index:02d}",
            "blocks": blocks,
            "latency": rng.randint(3 * blocks, 6 * blocks),
            "fault_budget": rng.randint(0, 2),
        })
    catalogue[0]["fault_budget"] = budget
    return catalogue


def designs() -> list[tuple[str, list[Scenario], int]]:
    """``(name, scenarios, repetitions)`` for each measured design."""
    examples = ROOT / "examples"
    grid = [
        Scenario.from_dict({
            "name": f"sweep-grid-budget-{budget}",
            "files": sweep_grid_catalogue(budget),
            "workload": {"requests": 6, "horizon": 150, "seed": 7},
        })
        for budget in (0, 1, 2)
    ]
    return [
        (
            "temporal-quorum (scenario_multichannel.json)",
            [Scenario.from_file(examples / "scenario_multichannel.json")],
            1 if SMOKE else 40,
        ),
        (
            "scenario_awacs_temporal.json",
            [Scenario.from_file(examples / "scenario_awacs_temporal.json")],
            1 if SMOKE else 5,
        ),
        ("sweep-grid (three 40-file designs)", grid, 1 if SMOKE else 40),
    ]


def fastest(run, repetitions: int) -> float:
    """The fastest of ``repetitions`` calls of ``run``, in ms."""
    best = float("inf")
    for _ in range(repetitions):
        begin = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - begin)
    return best * 1e3


def allocate(system, bases):
    """The double reduction's base loop: the first base that fits."""
    for base in bases:
        try:
            return allocate_double(specialize_double(system, base), base)
        except SchedulingError:
            continue
    raise SchedulingError("no ranked base fits")


def layer_times(scenario: Scenario, repetitions: int) -> dict[str, float]:
    """Each layer of ``scenario``'s single solve, run alone."""
    design = BroadcastEngine(scenario).design()
    # A replicated channel set shares one solved design.
    design = getattr(design, "designs", (design,))[0]
    plan = design.bandwidth_plan
    system = induced_system(plan.files, plan.bandwidth)
    schedule = design.report.schedule
    bases = ranked_bases(system)
    assignments = allocate(system, bases)
    assert Schedule.from_residue_classes(
        _cycle_length(assignments), assignments
    ) == schedule, "the staged allocation must be the design's"
    conditions = [
        PinwheelCondition(task.ident, task.a, task.b)
        for task in system.tasks
    ]
    program = design.program
    block_counts = {file: program.block_count(file) for file in program.files}
    windows = [
        (spec.name, spec.blocks + spec.fault_budget,
         plan.bandwidth * spec.latency)
        for spec in plan.files
    ]
    for file, needed, window in windows:
        assert program.min_distinct_in_window(file, window) >= needed

    def check_distinct():
        for file, _, window in windows:
            program.min_distinct_in_window(file, window)

    return {
        "rank": fastest(lambda: ranked_bases(system), repetitions),
        "allocate": fastest(lambda: allocate(system, bases), repetitions),
        "verify": fastest(
            lambda: verify_schedule(Schedule(schedule.cycle), conditions),
            repetitions,
        ),
        "index_build": fastest(
            lambda: ProgramIndex(
                BroadcastProgram(program.schedule, block_counts)
            ),
            repetitions,
        ),
        "min_distinct": fastest(check_distinct, repetitions),
    }


def test_design_layers_and_record():
    rows = []
    for name, scenarios, repetitions in designs():
        total = fastest(
            lambda: [BroadcastEngine(s).design() for s in scenarios],
            repetitions,
        )
        layers = dict.fromkeys(LAYERS, 0.0)
        for scenario in scenarios:
            for layer, ms in layer_times(scenario, repetitions).items():
                layers[layer] += ms
        first = BroadcastEngine(scenarios[0]).design()
        first = getattr(first, "designs", (first,))[0]
        rows.append({
            "design": name,
            "solves": len(scenarios),
            "tasks": len(first.report.schedule.owners()),
            "cycle": first.report.schedule.cycle_length,
            "repetitions": repetitions,
            "design_ms": round(total, 3),
            "layers_ms": {k: round(v, 3) for k, v in layers.items()},
        })

    print_table(
        "DESIGN: fastest design and its layers (ms)",
        ["design", "solves", "cycle", "design", *LAYERS],
        [
            [row["design"], row["solves"], row["cycle"],
             f"{row['design_ms']:.2f}",
             *(f"{row['layers_ms'][layer]:.2f}" for layer in LAYERS)]
            for row in rows
        ],
    )
    if SMOKE:  # smoke checks the staged pieces, never timing
        return
    RESULT_PATH.write_text(
        json.dumps(
            {"bench": "design", "provenance": provenance(), "designs": rows},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
