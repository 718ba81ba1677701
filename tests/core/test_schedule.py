"""Unit tests for cyclic schedules and their window arithmetic."""

import pytest
from hypothesis import example, given, strategies as st

from repro.core.schedule import IDLE, Schedule
from repro.errors import SpecificationError
from window_reference import brute_force_min_window


class TestBasics:
    def test_rejects_empty_cycle(self):
        with pytest.raises(SpecificationError):
            Schedule([])

    def test_cycle_accessors(self):
        schedule = Schedule([1, 2, IDLE, 1])
        assert schedule.cycle_length == 4
        assert schedule.owner_at(0) == 1
        assert schedule.owner_at(2) is IDLE
        assert schedule.owner_at(6) is IDLE  # periodic extension
        assert schedule.owners() == (1, 2)

    def test_owner_at_rejects_negative(self):
        with pytest.raises(SpecificationError):
            Schedule([1]).owner_at(-1)

    def test_idle_count_and_utilization(self):
        schedule = Schedule([1, IDLE, IDLE, 2])
        assert schedule.idle_count() == 2
        assert schedule.utilization() == pytest.approx(0.5)

    def test_example1_schedule_rendering(self):
        """The paper renders {(1,2,5),(2,1,3)} as 1,2,1,*,2,..."""
        schedule = Schedule([1, 2, 1, IDLE, 2])
        assert str(schedule) == "[1, 2, 1, *, 2]"


class TestWindows:
    def test_count_in_window_within_cycle(self):
        schedule = Schedule([1, 2, 1, 2, 1, 2])
        assert schedule.count_in_window(1, 0, 6) == 3
        assert schedule.count_in_window(2, 0, 6) == 3
        assert schedule.count_in_window(1, 1, 2) == 1

    def test_count_in_window_wraps(self):
        schedule = Schedule([1, 2, 2])
        assert schedule.count_in_window(1, 2, 2) == 1  # slots 2,3 -> [2][1]
        assert schedule.count_in_window(2, 2, 4) == 3

    def test_count_in_window_spanning_multiple_cycles(self):
        schedule = Schedule([1, 2])
        assert schedule.count_in_window(1, 0, 10) == 5
        assert schedule.count_in_window(1, 1, 10) == 5

    def test_min_in_any_window(self):
        schedule = Schedule([1, 2, 1, IDLE, 2])
        assert schedule.min_window(1, 5) == (0, 2)
        assert schedule.min_window(2, 3) == (0, 1)
        assert schedule.min_window(2, 2) == (2, 0)

    def test_rejects_bad_window_arguments(self):
        schedule = Schedule([1])
        with pytest.raises(SpecificationError):
            schedule.count_in_window(1, 0, -1)
        with pytest.raises(SpecificationError):
            schedule.count_in_window(1, -1, 1)
        with pytest.raises(SpecificationError):
            schedule.min_window(1, -1)

    @given(
        cycle=st.lists(st.sampled_from([1, 2, 3, None]), min_size=1, max_size=12),
        owner=st.sampled_from([1, 2, 3, 4]),
        length=st.integers(0, 30),
    )
    @example(cycle=[1, 2, None], owner=1, length=0)
    @example(cycle=[1, None, 2, 1], owner=2, length=9)
    @example(cycle=[None, 1, None, None, 1], owner=1, length=11)
    @example(cycle=[1, 2, 3], owner=4, length=4)
    @example(cycle=[None], owner=1, length=3)
    @example(cycle=[None, None, None], owner=2, length=7)
    def test_min_window_matches_brute_force(self, cycle, owner, length):
        # Owner 4 never appears; lengths run past 2L for every L <= 12.
        schedule = Schedule(cycle)
        assert schedule.min_window(owner, length) == brute_force_min_window(
            cycle, owner, length
        )


class TestGaps:
    def test_gaps_sum_to_cycle(self):
        schedule = Schedule([1, 2, 1, 2, 2, 1])
        assert sum(schedule.gaps(1)) == 6
        assert sum(schedule.gaps(2)) == 6

    def test_single_service_gap_is_cycle_length(self):
        schedule = Schedule([1, IDLE, IDLE])
        assert schedule.gaps(1) == (3,)
        assert schedule.max_gap(1) == 3

    def test_absent_owner_has_no_gap(self):
        schedule = Schedule([1])
        assert schedule.gaps(99) == ()
        assert schedule.max_gap(99) is None

    def test_figure6_gaps(self, figure6_program):
        """Delta_A = 2, Delta_B = 3 in the paper's Figure 6 program."""
        schedule = figure6_program.schedule
        assert schedule.max_gap("A") == 2
        assert schedule.max_gap("B") == 3


class TestResidueClasses:
    def test_simple_allocation(self):
        schedule = Schedule.from_residue_classes(
            4, {"x": [(0, 2)], "y": [(1, 4)]}
        )
        assert schedule.cycle == ("x", "y", "x", IDLE)

    def test_collision_rejected(self):
        with pytest.raises(SpecificationError):
            Schedule.from_residue_classes(
                4, {"x": [(0, 2)], "y": [(0, 4)]}
            )

    def test_bad_modulus_rejected(self):
        with pytest.raises(SpecificationError):
            Schedule.from_residue_classes(4, {"x": [(0, 3)]})

    def test_bad_offset_rejected(self):
        with pytest.raises(SpecificationError):
            Schedule.from_residue_classes(4, {"x": [(2, 2)]})


class TestTransforms:
    def test_rotation_preserves_window_minima(self):
        schedule = Schedule([1, 2, 1, IDLE, 2])
        rotated = schedule.rotated(2)
        for owner in (1, 2):
            for window in (2, 3, 5):
                assert rotated.min_window(owner, window)[1] == (
                    schedule.min_window(owner, window)[1]
                )

    def test_repeat_preserves_window_minima(self):
        schedule = Schedule([1, 2, IDLE])
        tripled = schedule.repeated(3)
        assert tripled.cycle_length == 9
        assert tripled.min_window(1, 3)[1] == schedule.min_window(1, 3)[1]

    def test_repeat_rejects_nonpositive(self):
        with pytest.raises(SpecificationError):
            Schedule([1]).repeated(0)

    def test_relabel_merges_owners(self):
        schedule = Schedule([1, "1-helper", 2])
        merged = schedule.relabel(lambda o: 1 if o == "1-helper" else o)
        assert merged.cycle == (1, 1, 2)

    def test_slots_iterates_infinite_extension(self):
        schedule = Schedule([1, 2])
        assert list(schedule.slots(5)) == [
            (0, 1), (1, 2), (2, 1), (3, 2), (4, 1),
        ]
