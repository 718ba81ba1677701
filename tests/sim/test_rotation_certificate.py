"""Rotation is the certificate: the closed forms against their oracles.

Window minima, fault-free finishes, worst-case delays and latencies
are arithmetic on a file's service counts (:mod:`repro.sim.delay`,
:meth:`BroadcastProgram.min_distinct_in_window`).  On drawn programs
with idle and shared slots they must equal the searches they replaced
- the exhaustive adversary game of ``delay_reference`` and the seed
slot walks of :mod:`tests.oracles.sim_reference` - value for value, and raise
the same :class:`SimulationError` text wherever the game raises.  The
worst-case latency also bounds the scalar walker
(:func:`repro.sim.client.retrieve`) under every placement of ``j``
losses, and is reached.
"""

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import delay_reference
from repro.api import Scenario
from repro.api.engine import BroadcastEngine
from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.errors import ProgramError, SimulationError
from tests.oracles import sim_reference as reference
from repro.sim.client import retrieve
from repro.sim.delay import (
    chosen_channel_delay,
    fault_free_latency,
    worst_case_delay,
    worst_case_latency,
)
from repro.sim.faults import AdversarialFaults

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@st.composite
def programs(draw, max_files=3, max_length=10, max_blocks=6):
    """Random small programs: idle slots, shared slots, rotation."""
    n_files = draw(st.integers(1, max_files))
    names = [f"f{i}" for i in range(n_files)]
    length = draw(st.integers(n_files, max_length))
    cycle = [draw(st.sampled_from(names + [IDLE])) for _ in range(length)]
    for index, name in enumerate(names):
        cycle[index % length] = name
    block_counts = {name: draw(st.integers(1, max_blocks)) for name in names}
    return BroadcastProgram(Schedule(cycle), block_counts)


@st.composite
def requirements(draw, program):
    """A file, ``m`` in 0..n+1, ``j`` in 0..3 and a mode."""
    file = draw(st.sampled_from(program.files))
    m_needed = draw(st.integers(0, program.block_count(file) + 1))
    return file, m_needed, draw(st.integers(0, 3)), draw(st.booleans())


def outcome(compute):
    """``compute()``'s value, or its SimulationError text."""
    try:
        return ("ok", compute())
    except SimulationError as error:
        return ("error", str(error))


class TestDelayAgainstTheGame:
    @given(program=programs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_worst_case_delay_equals_the_seed_game(self, program, data):
        file, m_needed, errors, distinct = data.draw(requirements(program))
        assert outcome(
            lambda: worst_case_delay(
                program, file, m_needed, errors, need_distinct=distinct
            )
        ) == outcome(
            lambda: reference.worst_case_delay(
                program, file, m_needed, errors, need_distinct=distinct
            )
        )

    @given(program=programs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_latencies_equal_the_game(self, program, data):
        file, m_needed, errors, distinct = data.draw(requirements(program))
        assert outcome(
            lambda: worst_case_latency(
                program, file, m_needed, errors, need_distinct=distinct
            )
        ) == outcome(
            lambda: delay_reference.worst_case_latency(
                program, file, m_needed, errors, need_distinct=distinct
            )
        )
        for phase in range(program.data_cycle_length + 2):
            assert outcome(
                lambda: fault_free_latency(
                    program, file, m_needed,
                    phase=phase, need_distinct=distinct,
                )
            ) == outcome(
                lambda: delay_reference.fault_free_latency(
                    program, file, m_needed,
                    phase=phase, need_distinct=distinct,
                )
            )

    @given(
        carriers=st.lists(
            programs(max_files=2, max_length=8, max_blocks=4),
            min_size=1,
            max_size=3,
        ),
        m_needed=st.integers(0, 5),
        errors=st.integers(0, 3),
        tuning_cost=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_chosen_channel_delay_equals_the_game(
        self, carriers, m_needed, errors, tuning_cost
    ):
        # Every drawn program carries f0; the client picks among them,
        # hearing every carrier but its tuned one tuning_cost slots late.
        assert outcome(
            lambda: chosen_channel_delay(
                carriers, "f0", m_needed, errors, tuning_cost=tuning_cost
            )
        ) == outcome(
            lambda: delay_reference.chosen_channel_delay(
                carriers, "f0", m_needed, errors, tuning_cost=tuning_cost
            )
        )

    def test_figure6_file_b_past_its_spare_blocks(self, figure6_program):
        # 3-of-6 with r = 4, 5: the adversary must wipe out whole
        # blocks, which "kill the first r heard" cannot model.
        for errors in (4, 5):
            assert worst_case_delay(
                figure6_program, "B", 3, errors
            ) == reference.worst_case_delay(figure6_program, "B", 3, errors)
            assert worst_case_latency(
                figure6_program, "B", 3, errors
            ) == delay_reference.worst_case_latency(
                figure6_program, "B", 3, errors
            )


class TestErrors:
    def test_texts_match_the_game(self, figure5_program, figure6_program):
        cases = (
            (figure6_program, "A", 11, 1, True),  # 11 of 10 blocks
            (figure5_program, "A", 6, 0, False),  # block 5 never airs
            (figure5_program, "A", 0, 2, False),  # nothing is useful
            (figure6_program, "ghost", 2, 1, True),
            (figure6_program, "A", 5, -1, True),
        )
        for program, file, m_needed, errors, distinct in cases:
            closed = outcome(
                lambda: worst_case_delay(
                    program, file, m_needed, errors, need_distinct=distinct
                )
            )
            assert closed[0] == "error"
            assert closed == outcome(
                lambda: reference.worst_case_delay(
                    program, file, m_needed, errors, need_distinct=distinct
                )
            )
            assert outcome(
                lambda: worst_case_latency(
                    program, file, m_needed, errors, need_distinct=distinct
                )
            ) == outcome(
                lambda: delay_reference.worst_case_latency(
                    program, file, m_needed, errors, need_distinct=distinct
                )
            )

    def test_zero_blocks_with_ida_finish_at_the_first_block(
        self, figure6_program
    ):
        assert fault_free_latency(figure6_program, "A", 0) == 1
        assert worst_case_delay(figure6_program, "A", 0, 2) == (
            reference.worst_case_delay(figure6_program, "A", 0, 2)
        )

    def test_no_carrier_is_a_simulation_error(self):
        with pytest.raises(SimulationError, match="no channel"):
            chosen_channel_delay((), "A", 1, 1)

    def test_negative_tuning_cost_is_a_simulation_error(
        self, figure6_program
    ):
        with pytest.raises(SimulationError, match="tuning_cost must be"):
            chosen_channel_delay((figure6_program,), "A", 5, 1, tuning_cost=-1)


class TestWindows:
    @given(program=programs(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_min_distinct_equals_the_slot_walk(self, program, data):
        file = data.draw(st.sampled_from(program.files + ("absent",)))
        for window in range(2 * program.data_cycle_length + 2):
            assert program.min_distinct_in_window(
                file, window
            ) == reference.min_distinct_in_window(program, file, window)

    def test_negative_window_is_a_program_error(self, figure6_program):
        with pytest.raises(ProgramError, match="window must be >= 0: -1"):
            figure6_program.min_distinct_in_window("A", -1)
        with pytest.raises(ProgramError, match="window must be >= 0: -2"):
            figure6_program.min_distinct_in_window("absent", -2)

    def test_windows_never_build_the_index(self):
        program = build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])
        assert program.min_distinct_in_window("A", 8) == 5
        assert worst_case_delay(program, "A", 5, 2) == 4
        assert program._index is None


def assert_certificate_bounds_the_walker(program, file, m_needed, errors,
                                         distinct):
    """Every phase of one data cycle, every set of at most ``errors`` of
    the file's services in ``[phase, phase + L)``: the walker finishes
    within ``L = worst_case_latency(...)`` at its default horizon, and
    the worst of them takes exactly ``L``."""
    bound = worst_case_latency(
        program, file, m_needed, errors, need_distinct=distinct
    )
    worst = 0
    for phase in range(program.data_cycle_length):
        services = [
            t for t in range(phase, phase + bound)
            if (content := program.slot_content(t)) is not None
            and content.file == file
        ]
        for count in range(errors + 1):
            for lost in combinations(services, count):
                result = retrieve(
                    program, file, m_needed, start=phase,
                    faults=AdversarialFaults(lost), need_distinct=distinct,
                )
                assert result.completed, (phase, lost)
                assert result.latency <= bound, (phase, lost)
                worst = max(worst, result.latency)
    assert worst == bound


class TestCertificateBoundsTheWalker:
    """The paper's promise against the one scalar walker: within
    ``d(j)`` slots despite any ``j`` losses, and no sooner in the worst
    case."""

    @given(program=programs(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_drawn_programs(self, program, data):
        file = data.draw(st.sampled_from(program.files))
        m_needed = data.draw(st.integers(1, program.block_count(file)))
        errors = data.draw(st.integers(0, 2))
        assert_certificate_bounds_the_walker(
            program, file, m_needed, errors, data.draw(st.booleans())
        )

    @pytest.mark.parametrize("distinct", [True, False], ids=["ida", "specific"])
    def test_scenario_awacs(self, distinct):
        scenario = Scenario.from_file(EXAMPLES / "scenario_awacs.json")
        program = BroadcastEngine(scenario).design().program
        for spec in scenario.files:
            for errors in range(scenario.delay_errors + 1):
                assert_certificate_bounds_the_walker(
                    program, spec.name, spec.blocks, errors, distinct
                )
