"""Tests for the pinwheel algebra rules R0-R5.

Soundness is checked *semantically*: for concrete schedules satisfying a
rule's RHS, the LHS must hold too.  Derivable implication (pc_implies) is
cross-checked against witness schedules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algebra import (
    pc_implies,
    remove_dominated,
    rule_r0,
    rule_r1,
    rule_r2,
    rule_r4,
    rule_r5,
    strengthen_r3,
)
from repro.core.conditions import pc
from repro.core.schedule import Schedule
from repro.core.verify import satisfies_pc
from repro.core.two_task import mechanical_word
from repro.errors import SpecificationError


def balanced_schedule(ticks: int, length: int) -> Schedule:
    """A schedule giving task 'i' exactly `ticks` evenly-spread slots."""
    word = mechanical_word(ticks, length)
    return Schedule("i" if tick else None for tick in word)


class TestDerivations:
    def test_r0_weakens(self):
        derived = rule_r0(pc("i", 3, 5), x=1, y=2)
        assert derived == pc("i", 2, 7)

    def test_r0_rejects_negative(self):
        with pytest.raises(SpecificationError):
            rule_r0(pc("i", 3, 5), x=-1)

    def test_r1_scales(self):
        assert rule_r1(pc("i", 1, 2), 4) == pc("i", 4, 8)

    def test_r1_rejects_nonpositive(self):
        with pytest.raises(SpecificationError):
            rule_r1(pc("i", 1, 2), 0)

    def test_r2_shrinks(self):
        assert rule_r2(pc("i", 4, 8), 1) == pc("i", 3, 7)

    def test_strengthen_r3(self):
        assert strengthen_r3(pc("i", 4, 9)) == pc("i", 1, 2)

    def test_r4_splits_surplus(self):
        helper, mapping = rule_r4(pc("i", 4, 8), pc("i", 5, 9))
        assert helper.a == 1 and helper.b == 9
        assert mapping[helper.task] == "i"

    def test_r4_rejects_mismatched_tasks(self):
        with pytest.raises(SpecificationError):
            rule_r4(pc("i", 4, 8), pc("j", 5, 9))

    def test_r5_example4(self):
        """Example 4: pc(1,2) covers pc(5,9) with helper pc(1,10)."""
        helper, mapping = rule_r5(pc("i", 1, 2), pc("i", 5, 9))
        assert helper == pc(helper.task, 1, 10)
        assert mapping[helper.task] == "i"

    def test_r5_no_helper_when_covered(self):
        # Target (4, 8) from base (1, 2): n=4, x = 8 - 8 = 0.
        helper, mapping = rule_r5(pc("i", 1, 2), pc("i", 4, 8))
        assert helper is None
        assert mapping == {}


class TestRuleSoundness:
    """Schedules satisfying the RHS satisfy the derived LHS."""

    @given(
        ticks=st.integers(1, 10),
        length=st.integers(10, 30),
        x=st.integers(0, 3),
        y=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_r0_semantic(self, ticks, length, x, y):
        ticks = min(ticks, length)
        schedule = balanced_schedule(ticks, length)
        # The strongest window condition the schedule provably meets:
        base = pc("i", max(1, ticks * 10 // length or 1), 10)
        if not satisfies_pc(schedule, base):
            return  # density too low for this base; skip
        derived_a = base.a - x
        if derived_a < 1:
            return
        derived = rule_r0(base, x=x, y=y)
        assert satisfies_pc(schedule, derived)

    @given(ticks=st.integers(1, 8), n=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_r1_semantic(self, ticks, n):
        length = 16
        ticks = min(ticks, length)
        schedule = balanced_schedule(ticks, length)
        # A window of ceil(L / k) slots always catches a balanced tick.
        base = pc("i", 1, -(-length // ticks))
        assert satisfies_pc(schedule, base)
        assert satisfies_pc(schedule, rule_r1(base, n))

    @given(ticks=st.integers(2, 10), x=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_r2_semantic(self, ticks, x):
        length = 20
        schedule = balanced_schedule(ticks, length)
        window = length // ticks * 2
        base = pc("i", schedule.min_window("i", window)[1], window)
        if base.a - x < 1 or base.b - x < base.a - x:
            return
        assert satisfies_pc(schedule, base)
        assert satisfies_pc(schedule, rule_r2(base, x))

    def test_r5_semantic_via_projection(self):
        """Example 4 end to end: schedule pc(1,2) + pc(1,10), project,
        check pc(5,9) holds on the merged sequence."""
        helper, _ = rule_r5(pc("i", 1, 2), pc("i", 5, 9))
        # Schedule: i on even slots, helper on slot 1 mod 10.
        cycle = []
        for t in range(10):
            if t % 2 == 0:
                cycle.append("i")
            elif t % 10 == 1:
                cycle.append(helper.task)
            else:
                cycle.append(None)
        merged = Schedule(cycle).relabel(lambda o: "i")
        assert satisfies_pc(merged, pc("i", 5, 9))
        assert satisfies_pc(merged, pc("i", 1, 2))


class TestImplication:
    def test_reflexive(self):
        assert pc_implies(pc("i", 2, 5), pc("i", 2, 5))

    def test_different_tasks_never_imply(self):
        assert not pc_implies(pc("i", 2, 5), pc("j", 2, 5))

    def test_r2_implication_example6(self):
        """Example 6: pc(2,3) => pc(1,2)."""
        assert pc_implies(pc("i", 2, 3), pc("i", 1, 2))

    def test_example5_merged_condition(self):
        """Example 5: pc(2,3) implies pc(2,5), pc(3,6), pc(4,6)."""
        strong = pc("i", 2, 3)
        for weak in (pc("i", 2, 5), pc("i", 3, 6), pc("i", 4, 6)):
            assert pc_implies(strong, weak)

    def test_not_implied(self):
        assert not pc_implies(pc("i", 1, 2), pc("i", 2, 3))
        assert not pc_implies(pc("i", 1, 3), pc("i", 1, 2))

    def test_r2_shrink_chain(self):
        """pc(5,9) => pc(4,8) (the Example 4 improvement this library
        finds beyond the paper's manipulation)."""
        assert pc_implies(pc("i", 5, 9), pc("i", 4, 8))

    @given(
        a=st.integers(1, 6),
        b=st.integers(1, 30),
        a2=st.integers(1, 6),
        b2=st.integers(1, 30),
    )
    @settings(max_examples=120, deadline=None)
    def test_implication_semantic_soundness(self, a, b, a2, b2):
        """If pc_implies says strong => weak, then every balanced witness
        of strong satisfies weak."""
        if b < a or b2 < a2:
            return
        strong, weak = pc("i", a, b), pc("i", a2, b2)
        if not pc_implies(strong, weak):
            return
        # Balanced witness with exactly density a/b:
        length = b * 4
        schedule = balanced_schedule(a * 4, length)
        assert satisfies_pc(schedule, strong)
        assert satisfies_pc(schedule, weak)


class TestRemoveDominated:
    def test_drops_r0_redundancy_example5(self):
        kept = remove_dominated(
            [pc("i", 2, 5), pc("i", 3, 6), pc("i", 4, 6)]
        )
        assert pc("i", 3, 6) not in kept
        assert pc("i", 4, 6) in kept

    def test_keeps_incomparable(self):
        conditions = [pc("i", 1, 2), pc("i", 2, 3)]
        kept = remove_dominated(conditions)
        assert kept == [pc("i", 2, 3)]  # (2,3) => (1,2) by R2

    def test_deduplicates_equal_conditions(self):
        kept = remove_dominated([pc("i", 1, 2), pc("i", 1, 2)])
        assert kept == [pc("i", 1, 2)]
