"""Differential tests: the lean design kernels against their oracles.

The lazy residue tree, the integer base ranking and the one-pass window
kernel must give exactly what the fully split tree, the ``Fraction``
ranking and the per-service window loop give: equal assignments, base
lists, windows, schedules, programs and delay tables, and the same
error type and text wherever those fail.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from double_reduction_reference import (
    eager_allocate_double,
    fraction_ranked_bases,
    walked_specialize_window,
)
from window_reference import brute_force_min_window, per_service_min_window
from repro.api import Scenario
from repro.api import engine as engine_module
from repro.api.engine import BroadcastEngine
from repro.core import double_reduction
from repro.core.double_reduction import (
    allocate_double,
    double_specialize_window,
    ranked_bases,
)
from repro.core.schedule import IDLE, Schedule
from repro.core.solver import solve
from repro.core.task import PinwheelSystem, PinwheelTask
from repro.errors import SchedulingError, SimulationError, SpecificationError
from repro.server.mutations import mutation_from_dict
from repro.server.server import successor
from tests.oracles import sim_reference as reference
from repro.sim.delay import worst_case_delay
from repro.sweep import SweepSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def outcome(build):
    """``build()``'s result, or its error's type and text."""
    try:
        return ("ok", build())
    except Exception as error:  # noqa: BLE001 - the type is compared
        return ("error", type(error), str(error))


@contextmanager
def oracles(delay_game):
    """Run the design pipeline on the oracles instead of the kernels,
    and the delay table on ``delay_game`` (the ``chosen_channel_game``
    fixture: the adversary game on the channel a client picks)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            double_reduction, "allocate_double", eager_allocate_double
        )
        patch.setattr(double_reduction, "ranked_bases", fraction_ranked_bases)
        patch.setattr(
            double_reduction,
            "double_specialize_window",
            walked_specialize_window,
        )
        patch.setattr(Schedule, "min_window", per_service_min_window)
        patch.setattr(
            engine_module, "chosen_channel_delay", delay_game
        )
        yield


@st.composite
def specialized_systems(draw):
    """A ``B(base)``-specialized system: every window is ``base * 2**j``
    or ``3 * base * 2**j``; densities run past 1, so pools run dry."""
    base = draw(st.integers(1, 12))
    tasks = []
    for ident in range(draw(st.integers(1, 9))):
        stem = draw(st.sampled_from((base, 3 * base)))
        window = stem << draw(st.integers(0, 6))
        tasks.append(
            PinwheelTask(ident, draw(st.integers(1, min(window, 4))), window)
        )
    return PinwheelSystem(tasks), base


@st.composite
def pinwheel_systems(draw, min_tasks=1, max_tasks=10):
    pairs = []
    for _ in range(draw(st.integers(min_tasks, max_tasks))):
        window = draw(st.integers(2, 160))
        pairs.append((draw(st.integers(1, min(window, 4))), window))
    return PinwheelSystem.from_pairs(pairs)


class TestLazyAllocator:
    @given(specialized_systems())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fully_split_tree(self, drawn):
        system, base = drawn
        assert outcome(lambda: allocate_double(system, base)) == outcome(
            lambda: eager_allocate_double(system, base)
        )

    @pytest.mark.parametrize(
        "pairs, base, message",
        [
            (
                [(1, 2), (1, 2), (1, 2)],
                2,
                "double reduction (base 2): pure pool exhausted for task "
                "3 (needs 1, has 0)",
            ),
            (
                [(3, 4), (2, 4)],
                4,
                "double reduction (base 4): pure pool exhausted for task "
                "2 (needs 2, has 1)",
            ),
            (
                [(2, 4), (1, 8), (1, 8), (3, 8)],
                4,
                "double reduction (base 4): pure pool exhausted for task "
                "4 (needs 3, has 2)",
            ),
            (
                [(4, 4), (1, 12)],
                4,
                "double reduction (base 4): cannot convert 1 pure nodes "
                "at level 0 (only 0 free)",
            ),
            (
                [(1, 2), (7, 12)],
                2,
                "double reduction (base 2): cannot convert 3 pure nodes "
                "at level 1 (only 2 free)",
            ),
        ],
    )
    def test_exhaustion_texts(self, pairs, base, message):
        system = PinwheelSystem.from_pairs(pairs)
        for allocate in (allocate_double, eager_allocate_double):
            with pytest.raises(SchedulingError) as error:
                allocate(system, base)
            assert str(error.value) == message

    def test_deep_tree_hands_out_the_same_classes(self):
        # 48 free classes split 9 levels deep: the fully split pool
        # holds 24,576 classes, of which two are handed out.
        system = PinwheelSystem.from_pairs([(1, 48 << 9), (1, 144 << 9)])
        assert allocate_double(system, 48) == eager_allocate_double(
            system, 48
        )


class TestIntegerRanking:
    @given(base=st.integers(1, 200), excess=st.integers(0, 100_000))
    @example(base=4, excess=7)
    @example(base=4, excess=8)
    @example(base=5, excess=9)
    @settings(max_examples=500, deadline=None)
    def test_specialized_window_matches_the_walk(self, base, excess):
        window = base + excess
        assert double_specialize_window(window, base) == (
            walked_specialize_window(window, base)
        )

    def test_window_below_base_raises_like_the_walk(self):
        for specialize in (double_specialize_window, walked_specialize_window):
            with pytest.raises(SpecificationError) as error:
                specialize(3, 4)
            assert str(error.value) == "window 3 smaller than base 4"

    @given(pinwheel_systems())
    @example(PinwheelSystem.from_pairs([(1, 4), (1, 8), (1, 16)]))
    @example(PinwheelSystem.from_pairs([(3, 4), (1, 6), (2, 7)]))
    @example(PinwheelSystem.from_pairs([(4, 5), (1, 40), (1, 41)]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_ranking(self, system):
        assert ranked_bases(system) == fraction_ranked_bases(system)

    def test_equal_densities_keep_base_order(self):
        # Bases 1, 2, 4 and 8 all specialize every window exactly.
        system = PinwheelSystem.from_pairs([(1, 8), (1, 16), (1, 32)])
        assert ranked_bases(system)[:4] == [1, 2, 4, 8]
        assert ranked_bases(system) == fraction_ranked_bases(system)

    def test_skips_a_base_that_shrinks_a_window_below_its_demand(self):
        # At base 5 the window 7 shrinks to 5 < 6; at base 7 it stays.
        system = PinwheelSystem.from_pairs([(6, 7), (1, 70)])
        assert 5 not in ranked_bases(system)
        assert ranked_bases(system) == fraction_ranked_bases(system)


LENGTHS = st.sampled_from(("zero", "below", "at", "above", "far above"))


def window_length(kind: str, cycle_len: int, offset: int) -> int:
    return {
        "zero": 0,
        "below": max(0, cycle_len - 1 - offset),
        "at": cycle_len,
        "above": cycle_len + offset,
        "far above": 3 * cycle_len + offset,
    }[kind]


class TestWindowKernel:
    @given(
        cycle=st.lists(
            st.sampled_from(["a", "b", "c", IDLE]), min_size=1, max_size=40
        ),
        owner=st.sampled_from(["a", "b", "d"]),
        kind=LENGTHS,
        offset=st.integers(0, 7),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_both_references(self, cycle, owner, kind, offset):
        schedule = Schedule(cycle)
        length = window_length(kind, len(cycle), offset)
        expected = brute_force_min_window(cycle, owner, length)
        assert schedule.min_window(owner, length) == expected
        assert per_service_min_window(schedule, owner, length) == expected
        assert schedule.service_slots(owner) == tuple(
            slot for slot, o in enumerate(cycle) if o == owner
        )

    def test_long_cycle_matches_the_per_service_loop(self):
        cycle = [
            "x" if slot % 7 in (0, 3) or slot % 31 == 5 else IDLE
            for slot in range(4_000)
        ]
        schedule = Schedule(cycle)
        for length in (0, 1, 6, 7, 30, 500, 3_999, 4_000, 4_001, 9_000):
            assert schedule.min_window("x", length) == (
                per_service_min_window(schedule, "x", length)
            )

    def test_negative_length_raises_like_the_loop(self):
        schedule = Schedule(["a", IDLE])
        for kernel in (Schedule.min_window, per_service_min_window):
            with pytest.raises(SpecificationError) as error:
                kernel(schedule, "a", -1)
            assert str(error.value) == "window length must be >= 0: -1"


def design_digest(design) -> str:
    """Digest of every program a design airs: cycle, data cycle, and
    the (file, block) of each slot."""
    programs = (
        design.channel_set.programs
        if hasattr(design, "channel_set")
        else [design.program]
    )
    digest = hashlib.sha256()
    for program in programs:
        digest.update(json.dumps([
            list(program.schedule.cycle),
            program.data_cycle_length,
            [
                None if content is None
                else [content.file, content.block_index]
                for content in program.content_cycle()
            ],
        ]).encode())
    return digest.hexdigest()[:16]


def example_scenarios() -> dict[str, Scenario]:
    """Every scenario the examples air: the scenario files, the two
    sweep bases and each step of the mutation script."""
    scenarios = {
        name: Scenario.from_file(EXAMPLES / f"{name}.json")
        for name in (
            "scenario_awacs",
            "scenario_awacs_temporal",
            "scenario_multichannel",
            "scenario_traffic",
            "server_awacs_modes",
        )
    }
    for name in ("sweep_fault_grid", "sweep_multichannel"):
        scenarios[name] = SweepSpec.from_file(EXAMPLES / f"{name}.json").base
    scenario = scenarios["server_awacs_modes"]
    script = json.loads(
        (EXAMPLES / "server_awacs_mutations.json").read_text()
    )
    for index, entry in enumerate(script):
        scenario = successor(scenario, mutation_from_dict(entry["mutation"]))
        scenarios[f"server_awacs_mutations[{index}]"] = scenario
    return scenarios


#: Digests of the designs the fully split tree, the Fraction ranking
#: and the per-service window loop produced for the examples.
EXAMPLE_DIGESTS = {
    "scenario_awacs": "ead2e6a755cfac74",
    "scenario_awacs_temporal": "bc914f67bb3e7195",
    "scenario_multichannel": "da3a849580a7db25",
    "scenario_traffic": "ead2e6a755cfac74",
    "server_awacs_modes": "9e9dd6475ae8d6cc",
    "sweep_fault_grid": "ead2e6a755cfac74",
    "sweep_multichannel": "bd13db55f76753d4",
    "server_awacs_mutations[0]": "4d0793f03df31510",
    "server_awacs_mutations[1]": "9e9dd6475ae8d6cc",
}


def delay_rows(scenario: Scenario, design, errors: int):
    payload = dict(scenario.to_dict(), delay_errors=errors)
    engine = BroadcastEngine(Scenario.from_dict(payload), design=design)
    return engine.delay_table()


class TestWholeDesigns:
    def test_every_example_design_is_unchanged(self, chosen_channel_game):
        scenarios = example_scenarios()
        assert set(scenarios) == set(EXAMPLE_DIGESTS)
        for name, scenario in scenarios.items():
            design = BroadcastEngine(scenario).design()
            assert design_digest(design) == EXAMPLE_DIGESTS[name], name
            with oracles(chosen_channel_game):
                expected = BroadcastEngine(scenario).design()
            assert design_digest(expected) == EXAMPLE_DIGESTS[name], name

    def test_designs_never_build_the_occurrence_index(self):
        # Window checks are service counts: the index waits for the
        # first retrieval.
        for name, scenario in example_scenarios().items():
            design = BroadcastEngine(scenario).design()
            programs = (
                design.channel_set.programs
                if hasattr(design, "channel_set")
                else [design.program]
            )
            assert all(program._index is None for program in programs), name

    def test_awacs_temporal_rows_at_one_loss(self):
        # The all-phase game takes minutes on this 122,880-slot cycle;
        # these are the values it gives.
        scenario = example_scenarios()["scenario_awacs_temporal"]
        rows = delay_rows(scenario, BroadcastEngine(scenario).design(), 1)
        assert [(row.file, row.errors, row.delay) for row in rows] == [
            ("air-tracks", 0, 0),
            ("air-tracks", 1, 10),
            ("ground-tracks", 0, 0),
            ("ground-tracks", 1, 80),
            ("terrain", 0, 0),
            ("terrain", 1, 5120),
        ]

    def test_example_delay_rows_match_the_all_phase_game(
        self, chosen_channel_game
    ):
        for name, scenario in example_scenarios().items():
            design = BroadcastEngine(scenario).design()
            # One lost slot on a 122,880-slot data cycle is minutes of
            # game; its fault-free row is checked on its own below.
            levels = (0,) if name == "scenario_awacs_temporal" else (0, 1)
            for errors in levels:
                rows = delay_rows(scenario, design, errors)
                if errors == 0 and name == "scenario_awacs_temporal":
                    assert [row.delay for row in rows] == [0] * len(rows)
                    continue
                with oracles(chosen_channel_game):
                    expected = delay_rows(scenario, design, errors)
                assert rows == expected, (name, errors)

    @given(pinwheel_systems(min_tasks=2, max_tasks=8))
    @settings(max_examples=60, deadline=None)
    def test_drawn_systems_solve_identically(
        self, chosen_channel_game, system
    ):
        def solved():
            report = solve(system, policy="auto")
            return report.schedule.cycle, report.method, report.attempts

        current = outcome(solved)
        with oracles(chosen_channel_game):
            assert outcome(solved) == current

    @given(
        files=st.lists(
            st.tuples(
                st.integers(1, 3), st.integers(2, 9), st.integers(0, 2)
            ),
            min_size=2,
            max_size=5,
        ),
        errors=st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_drawn_scenarios_design_identically(
        self, files, errors, chosen_channel_game
    ):
        payload = {
            "name": "drawn",
            "files": [
                {
                    "name": f"f{index}",
                    "blocks": blocks,
                    "latency": blocks * stretch,
                    "fault_budget": budget,
                }
                for index, (blocks, stretch, budget) in enumerate(files)
            ],
            "delay_errors": errors,
        }

        def designed():
            engine = BroadcastEngine(Scenario.from_dict(payload))
            program = engine.design().program
            return (
                program.schedule.cycle,
                program.data_cycle_length,
                engine.delay_table(),
            )

        current = outcome(designed)
        with oracles(chosen_channel_game):
            assert outcome(designed) == current


class TestFaultFreeDelay:
    def test_uncompletable_file_still_raises(
        self, figure5_program, figure6_program
    ):
        # Figure 6 rotates 10 distinct blocks of A; Figure 5 airs
        # blocks 0-4 of A in order.
        cases = (
            (figure6_program, "A", 11, True),
            (figure5_program, "A", 6, False),
        )
        for program, file, needed, distinct in cases:
            for delay in (worst_case_delay, reference.worst_case_delay):
                with pytest.raises(SimulationError, match="cannot progress"):
                    delay(program, file, needed, 0, need_distinct=distinct)

    def test_fault_free_delay_is_zero(self, figure5_program, figure6_program):
        for program, distinct in (
            (figure5_program, False),
            (figure6_program, True),
        ):
            for file in program.files:
                m = 3
                assert worst_case_delay(
                    program, file, m, 0, need_distinct=distinct
                ) == 0 == reference.worst_case_delay(
                    program, file, m, 0, need_distinct=distinct
                )
