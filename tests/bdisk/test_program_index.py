"""Tests for the precomputed occurrence index (ProgramIndex)."""

import gc
import pickle
import weakref

import pytest

from repro.errors import ProgramError, SpecificationError
from repro.bdisk.flat import build_aida_flat_program, build_flat_program
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from repro.bdisk.program_index import ProgramIndex
from tests.oracles import sim_reference as reference


@pytest.fixture
def program():
    """Figure 6: A 5-of-10, B 3-of-6 - data cycle of two periods."""
    return build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])


def multidisk_world():
    files = [("hot", 2), ("warm", 3), ("cold", 4)]
    program = build_multidisk_program(
        config_from_demand(
            files, {"hot": 6.0, "warm": 2.0, "cold": 1.0}, levels=(4, 2, 1)
        )
    )
    return program, [name for name, _ in files], dict(files)


class TestConstruction:
    def test_shared_lazy_instance(self, program):
        assert program.index is program.index
        assert isinstance(program.index, ProgramIndex)
        assert program.index.program is program

    def test_contents_match_slot_content(self, program):
        contents = program.index.contents
        assert len(contents) == program.data_cycle_length
        for t, content in enumerate(contents):
            assert content == program.slot_content(t)

    def test_occurrence_arrays_align(self, program):
        index = program.index
        for file in program.files:
            slots = index.occurrence_slots(file)
            blocks = index.occurrence_blocks(file)
            assert len(slots) == len(blocks)
            assert list(slots) == sorted(slots)
            for slot, block in zip(slots, blocks):
                content = program.slot_content(slot)
                assert content.file == file
                assert content.block_index == block
            assert index.occurrences(file) == tuple(zip(slots, blocks))
            assert index.occurrences_per_cycle(file) == len(slots)

    def test_unknown_file_rejected(self, program):
        index = program.index
        with pytest.raises(ProgramError):
            index.occurrence_slots("Z")
        with pytest.raises(ProgramError):
            index.next_occurrence("Z", 0)


class TestOccurrenceWalk:
    def test_next_occurrence_is_first_at_or_after(self, program):
        index = program.index
        cycle = program.data_cycle_length
        for file in program.files:
            for t in range(2 * cycle + 1):
                slot, block = index.next_occurrence(file, t)
                assert slot >= t
                content = program.slot_content(slot)
                assert (content.file, content.block_index) == (file, block)
                # No earlier service of the file in [t, slot).
                assert all(
                    (c := program.slot_content(u)) is None
                    or c.file != file
                    for u in range(t, slot)
                )

    def test_occurrences_from_walks_every_service(self, program):
        index = program.index
        cycle = program.data_cycle_length
        start = 7
        walked = []
        for slot, block in index.occurrences_from("A", start):
            if slot >= start + 2 * cycle:
                break
            walked.append((slot, block))
        expected = [
            (t, program.slot_content(t).block_index)
            for t in range(start, start + 2 * cycle)
            if (c := program.slot_content(t)) is not None and c.file == "A"
        ]
        assert walked == expected

    def test_negative_slots_rejected(self, program):
        # Same error type as Schedule.owner_at / slot_content.
        index = program.index
        with pytest.raises(SpecificationError):
            index.next_occurrence("A", -1)
        with pytest.raises(SpecificationError):
            next(index.occurrences_from("A", -1))
        with pytest.raises(SpecificationError):
            index.content(-1)


class TestWindows:
    def test_single_service_gap_is_cycle(self):
        flat = build_flat_program([("A", 1)])
        assert flat.max_gap("A") == flat.data_cycle_length

    def test_count_in_window_wraps_cycles(self, program):
        schedule = program.schedule
        cycle = program.data_cycle_length
        per_cycle = program.index.occurrences_per_cycle("B")
        assert schedule.count_in_window("B", 0, 3 * cycle) == 3 * per_cycle
        assert schedule.count_in_window("B", 5, 0) == 0

    def test_min_distinct_consistent_with_verify(self, program):
        # Figure 6's headline property: every window of one period holds
        # enough distinct blocks for IDA plus slack for faults.
        window = program.broadcast_period
        assert program.min_distinct_in_window(
            "A", window
        ) == reference.min_distinct_in_window(program, "A", window) == 5
        assert program.verify_fault_tolerance("A", 5, 0, window)

    def test_min_distinct_absent_file_is_zero(self, program):
        assert program.min_distinct_in_window("Z", 4) == 0


class TestLifecycle:
    def test_indexed_program_is_freed_without_the_collector(self):
        # The index points back at its program weakly, so dropping the
        # last reference frees both at once - no cycle waits for a
        # full collection with the index tables attached.
        gc.disable()
        try:
            program = build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])
            index = program.index
            index.finish_table("A", 5)
            ref = weakref.ref(program)
            del program
            assert ref() is None
            assert index.program is None
        finally:
            gc.enable()

    def test_files_are_the_owners_in_first_appearance_order(self, program):
        assert program.files == program.schedule.owners()
        assert program.index.files == program.files

    def test_files_survive_a_pickle_round_trip(self, program):
        program.index  # the index itself is never pickled
        # The pickled state keeps its three fields, so solve-cache
        # entries written before `files` was stored still load.
        assert len(program.__getstate__()) == 3
        clone = pickle.loads(pickle.dumps(program))
        assert clone.files == program.files
        assert clone.index.occurrences("B") == program.index.occurrences("B")


class TestProgramPickling:
    def test_pickle_excludes_the_occurrence_index(self):
        program, catalogue, sizes = multidisk_world()
        program.index  # force the expensive build
        payload = pickle.dumps(program)
        clone = pickle.loads(payload)
        assert clone._index is None
        # ... and the clone still works: the index rebuilds lazily.
        assert (
            clone.index.data_cycle_length
            == program.index.data_cycle_length
        )
        assert clone.schedule.cycle == program.schedule.cycle

    def test_pickle_is_schedule_sized(self):
        program = build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])
        program.index
        assert len(pickle.dumps(program)) < 2_000
