"""The index's fault-free finish tables against the retrieval walk.

:meth:`ProgramIndex.fault_free_finish` answers "when does a clean IDA
retrieval from this start collect m distinct blocks" by a lookup; the
channel choice and the SoA retrieval tables rely on it agreeing with
:func:`repro.sim.client.retrieve` exactly, whatever the horizon.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError, SpecificationError
from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.sim.client import retrieve


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


def assert_lookup_matches_walk(program):
    """Every file, every m in 0..n+1, every phase of one data cycle, and
    horizons ending before, at and after the finish."""
    index = program.index
    cycle = program.data_cycle_length
    for file in program.files:
        for m in range(program.block_count(file) + 2):
            for start in range(cycle):
                finish = index.fault_free_finish(file, m, start)
                if m > program.block_count(file):
                    # Fewer distinct blocks than m: never completes.
                    assert finish is None
                horizons = {1, cycle, (m + 2) * cycle}
                if finish is not None:
                    needed = finish - start + 1
                    horizons |= {needed - 1, needed, needed + 1}
                for horizon in sorted(h for h in horizons if h >= 0):
                    if horizon == 0:
                        # No walk listens to fewer than one slot.
                        with pytest.raises(
                            SimulationError, match="horizon must be >= 1: 0"
                        ):
                            retrieve(
                                program, file, m, start=start, max_slots=0
                            )
                        continue
                    walk = retrieve(
                        program, file, m, start=start, max_slots=horizon
                    )
                    completes = finish is not None and (
                        finish < start + horizon
                    )
                    assert walk.completed == completes, (
                        file, m, start, horizon,
                    )
                    if completes:
                        assert walk.finish_slot == finish


class TestFinishLookup:
    def test_figure_6_program(self):
        assert_lookup_matches_walk(
            build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])
        )

    @given(program=programs())
    @settings(max_examples=60, deadline=None)
    def test_random_programs(self, program):
        assert_lookup_matches_walk(program)

    def test_later_cycles_shift_by_whole_cycles(self):
        program = build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])
        index = program.index
        cycle = program.data_cycle_length
        for start in range(cycle):
            first = index.fault_free_finish("A", 5, start)
            assert index.fault_free_finish(
                "A", 5, start + 3 * cycle
            ) == first + 3 * cycle

    def test_negative_start_rejected(self):
        # Like next_occurrence / occurrences_from / content: no finish
        # is answered for a slot before the program begins.
        index = build_aida_flat_program([("A", 5, 10), ("B", 3, 6)]).index
        with pytest.raises(SpecificationError):
            index.fault_free_finish("A", 5, -3)
        with pytest.raises(SpecificationError):
            index.fault_free_finish("B", 3, -1)


class TestFinishTable:
    def test_cached_per_file_and_m(self):
        index = build_aida_flat_program([("A", 5, 10)]).index
        table = index.finish_table("A", 5)
        assert index.finish_table("A", 5) is table
        assert len(table) == index.occurrences_per_cycle("A")

    def test_zero_blocks_completes_at_the_first_block(self):
        index = build_aida_flat_program([("A", 5, 10)]).index
        assert index.finish_table("A", 0) == index.finish_table("A", 1)
        assert index.finish_table("A", 1) == index.occurrence_slots("A")

    def test_unreachable_m_marks_every_occurrence(self):
        index = build_aida_flat_program([("A", 2, 3)]).index
        assert set(index.finish_table("A", 4)) == {-1}
