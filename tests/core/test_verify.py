"""Unit tests for schedule verification."""

import pytest
from hypothesis import given, strategies as st

from repro.core.conditions import NiceConjunct, bc, pc, virtual_key
from repro.core.schedule import IDLE, Schedule
from repro.core.verify import (
    Violation,
    check_schedule,
    project_to_files,
    satisfies_bc,
    satisfies_pc,
    verify_schedule,
)
from repro.errors import VerificationError
from window_reference import brute_force_min_window


class TestSatisfiesPc:
    def test_alternating_schedule_example1(self):
        """1,2,1,2,... satisfies {(1,1,2), (2,1,3)}."""
        schedule = Schedule([1, 2])
        assert satisfies_pc(schedule, pc(1, 1, 2))
        assert satisfies_pc(schedule, pc(2, 1, 3))

    def test_example1_second_schedule(self):
        """1,2,1,*,2 satisfies {(1,2,5), (2,1,3)}."""
        schedule = Schedule([1, 2, 1, IDLE, 2])
        assert satisfies_pc(schedule, pc(1, 2, 5))
        assert satisfies_pc(schedule, pc(2, 1, 3))

    def test_detects_violation(self):
        schedule = Schedule([1, 1, 2])
        assert not satisfies_pc(schedule, pc(2, 1, 2))

    def test_window_longer_than_cycle(self):
        schedule = Schedule([1, 2, IDLE])
        assert satisfies_pc(schedule, pc(1, 3, 9))
        assert not satisfies_pc(schedule, pc(1, 4, 9))


class TestSatisfiesBc:
    def test_bc_via_expansion(self):
        # pc(2,5) ^ pc(3,6) ^ pc(4,6): schedule 1 two of every 3 slots.
        schedule = Schedule([1, 1, 2])
        assert satisfies_bc(schedule, bc(1, 2, [5, 6, 6]))

    def test_bc_violation_at_higher_fault_level(self):
        # 1 appears 1-in-3: fine for pc(1,3) but not for pc(2,5).
        schedule = Schedule([1, 2, 2])
        assert satisfies_pc(schedule, pc(1, 1, 3))
        assert not satisfies_bc(schedule, bc(1, 1, [3, 5]))


class TestCheckAndVerify:
    def test_report_ok(self):
        schedule = Schedule([1, 2])
        report = check_schedule(schedule, [pc(1, 1, 2), pc(2, 1, 2)])
        assert report.ok
        assert bool(report)
        assert "OK" in str(report)

    def test_report_contains_witness(self):
        schedule = Schedule([1, 1, 2])
        report = check_schedule(schedule, [pc(2, 2, 3)])
        assert not report.ok
        violation = report.violations[0]
        assert violation.required == 2
        assert violation.observed < 2
        assert "violated" in str(violation)

    def test_max_violations_cap(self):
        schedule = Schedule([1])
        report = check_schedule(
            schedule,
            [pc(2, 1, 3), pc(3, 1, 3), pc(4, 1, 3)],
            max_violations=2,
        )
        assert len(report.violations) == 2

    def test_verify_raises_with_message(self):
        schedule = Schedule([1, 1, 2])
        with pytest.raises(VerificationError, match="pc"):
            verify_schedule(schedule, [pc(2, 2, 3)])

    def test_verify_passes_silently(self):
        verify_schedule(Schedule([1, 2]), [pc(1, 1, 2)])

    def test_rejects_unknown_condition_type(self):
        with pytest.raises(TypeError):
            check_schedule(Schedule([1]), ["not a condition"])

    @given(
        cycle=st.lists(
            st.sampled_from(["x", "y", IDLE]), min_size=1, max_size=14
        ),
        conditions=st.lists(
            st.tuples(
                st.sampled_from(["x", "y", "z"]),
                st.integers(1, 6),
                st.integers(0, 30),
            ).filter(lambda t: t[1] <= t[2]),
            min_size=1,
            max_size=4,
        ),
    )
    def test_witness_is_earliest_sparsest_window(self, cycle, conditions):
        expected = []
        for task, a, b in conditions:
            start, count = brute_force_min_window(cycle, task, b)
            if count < a:
                expected.append(Violation(pc(task, a, b), start, b, a, count))
        report = check_schedule(
            Schedule(cycle), [pc(task, a, b) for task, a, b in conditions]
        )
        assert report.violations == tuple(expected)


class TestProjection:
    def test_project_merges_virtual_tasks(self):
        helper = virtual_key("F", 1)
        conjunct = NiceConjunct(
            (pc("F", 1, 2), pc(helper, 1, 4)), {helper: "F"}
        )
        schedule = Schedule(["F", helper, "F", IDLE])
        projected = project_to_files(schedule, conjunct)
        assert projected.cycle == ("F", "F", "F", IDLE)

    def test_projection_satisfies_merged_condition(self):
        """R4 rationale: base + helper jointly satisfy the target."""
        helper = virtual_key("F", 1)
        conjunct = NiceConjunct(
            (pc("F", 1, 2), pc(helper, 1, 4)), {helper: "F"}
        )
        schedule = Schedule(["F", helper, "F", IDLE])
        projected = project_to_files(schedule, conjunct)
        # base pc(1,2) + helper pc(1,4) => pc(2,4) on the file.
        assert satisfies_pc(projected, pc("F", 2, 4))
