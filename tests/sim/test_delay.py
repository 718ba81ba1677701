"""Tests for worst-case delay analysis (Lemmas 1-2, Figure 7)."""

import pytest

from repro.bdisk.flat import build_aida_flat_program
from tests.oracles import sim_reference as reference
from repro.sim.delay import (
    fault_free_latency,
    lemma1_bound,
    lemma2_bound,
    worst_case_delay,
    worst_case_delay_table,
    worst_case_latency,
)
from repro.errors import SimulationError


class TestBounds:
    def test_lemma1(self):
        assert lemma1_bound(8, 3) == 24

    def test_lemma2(self):
        assert lemma2_bound(3, 5) == 15


class TestFaultFreeLatency:
    def test_figure6_values(self, figure6_program):
        assert fault_free_latency(figure6_program, "A", 5) == 8
        assert fault_free_latency(figure6_program, "B", 3) == 7

    def test_specific_mode_latency(self, figure5_program):
        assert fault_free_latency(
            figure5_program, "A", 5, need_distinct=False
        ) == 8

    def test_unknown_file(self, figure6_program):
        with pytest.raises(SimulationError):
            fault_free_latency(figure6_program, "Z", 1)


class TestWorstCaseDelay:
    def test_zero_errors_zero_delay(self, figure6_program):
        assert worst_case_delay(figure6_program, "A", 5, 0) == 0

    def test_figure7_with_ida_file_a(self, figure6_program):
        """Exact adversarial delays for file A (paper estimates:
        3, 4, 6, 7, 8 for r = 1..5; exact: 2, 4, 5, 7, 8)."""
        delays = [
            worst_case_delay(figure6_program, "A", 5, r) for r in range(6)
        ]
        assert delays == [0, 2, 4, 5, 7, 8]

    def test_figure7_with_ida_file_b_within_capacity(self, figure6_program):
        """File B (3-of-6) tolerates r <= 3 within the Lemma 2 bound."""
        delta = figure6_program.max_gap("B")
        for r in range(4):
            delay = worst_case_delay(figure6_program, "B", 3, r)
            assert delay <= lemma2_bound(delta, r)

    def test_capacity_exceeded_breaks_linear_bound(self, figure6_program):
        """Beyond r = N - m the adversary forces duplicate indices and
        the delay jumps past r * Delta - AIDA must be provisioned with
        n >= m + r (the library's designers enforce this)."""
        delta = figure6_program.max_gap("B")
        delay = worst_case_delay(figure6_program, "B", 3, 4)
        assert delay > lemma2_bound(delta, 4)

    def test_lemma2_bound_holds_within_capacity(self, figure6_program):
        delta = figure6_program.max_gap("A")
        for r in range(6):  # A is 5-of-10: capacity 5
            delay = worst_case_delay(figure6_program, "A", 5, r)
            assert delay <= lemma2_bound(delta, r)

    def test_figure7_without_ida_is_linear_in_period(self, figure5_program):
        """Lemma 1 is tight: r errors cost exactly r periods."""
        period = figure5_program.broadcast_period
        for r in range(6):
            for file, m in (("A", 5), ("B", 3)):
                delay = worst_case_delay(
                    figure5_program, file, m, r, need_distinct=False
                )
                assert delay == lemma1_bound(period, r)

    def test_negative_errors_rejected(self, figure6_program):
        with pytest.raises(SimulationError):
            worst_case_delay(figure6_program, "A", 5, -1)

    def test_impossible_requirement_detected(self, figure6_program):
        with pytest.raises(SimulationError, match="useful"):
            worst_case_delay(figure6_program, "B", 7, 1)


class TestExactWidthCap:
    """The exact worst case has no width cap: files at and past 20
    blocks, where a search over partial-retrieval states blows up, get
    exact answers, and bad inputs stay SimulationErrors."""

    def wide_program(self, m, width):
        # One file rotating through `width` dispersed blocks, any `m`
        # of which reconstruct it.
        return build_aida_flat_program([("W", m, width)])

    def test_at_width_cap_always_runs(self):
        program = self.wide_program(2, 20)
        delta = program.max_gap("W")
        delay = worst_case_delay(program, "W", 2, 1)
        assert 0 <= delay <= lemma2_bound(delta, 1)

    def test_wide_but_cheap_search_is_permitted(self):
        program = self.wide_program(2, 40)
        delta = program.max_gap("W")
        delay = worst_case_delay(program, "W", 2, 1)
        assert 0 <= delay <= lemma2_bound(delta, 1)

    def test_zero_errors_stay_uncapped(self):
        program = self.wide_program(22, 24)
        assert worst_case_delay(program, "W", 22, 0) == 0
        assert fault_free_latency(program, "W", 22) == 22

    def test_unknown_file_stays_a_simulation_error(self):
        program = self.wide_program(2, 4)
        with pytest.raises(SimulationError, match="not broadcast"):
            worst_case_delay(program, "ghost", 2, 1)
        with pytest.raises(SimulationError, match="not broadcast"):
            worst_case_latency(program, "ghost", 2, 1)

    def test_negative_errors_rejected_by_latency_too(self):
        program = self.wide_program(2, 4)
        with pytest.raises(SimulationError, match=">= 0"):
            worst_case_latency(program, "W", 2, -1)


class TestWideFiles:
    """With n >= m + j the adversary does best by killing the first j
    services heard, so the 22-of-24 file's worst cases are gaps between
    clean finishes of m and of m + j blocks."""

    def clean_finishes(self, program, need):
        index = program.index
        return [
            (start, index.fault_free_finish("W", need, start))
            for start in range(program.data_cycle_length)
        ]

    def test_22_of_24_delay_is_kill_the_first_heard(self):
        program = build_aida_flat_program([("W", 22, 24)])
        base = dict(self.clean_finishes(program, 22))
        for errors in (1, 2):
            expected = max(
                finish - base[start]
                for start, finish in self.clean_finishes(program, 22 + errors)
            )
            assert worst_case_delay(program, "W", 22, errors) == expected

    def test_22_of_24_latency_is_kill_the_first_heard(self):
        program = build_aida_flat_program([("W", 22, 24)])
        for errors in (1, 2):
            expected = max(
                finish - start + 1
                for start, finish in self.clean_finishes(program, 22 + errors)
            )
            assert worst_case_latency(program, "W", 22, errors) == expected

    def test_without_ida_each_loss_costs_a_rotation(self):
        program = build_aida_flat_program([("W", 10, 40)])
        for errors in range(3):
            delay = worst_case_delay(
                program, "W", 10, errors, need_distinct=False
            )
            assert delay == errors * program.data_cycle_length
            assert delay == reference.worst_case_delay(
                program, "W", 10, errors, need_distinct=False
            )


class TestWorstCaseLatency:
    def test_latency_at_least_fault_free(self, figure6_program):
        worst0 = worst_case_latency(figure6_program, "B", 3, 0)
        assert worst0 >= fault_free_latency(figure6_program, "B", 3)

    def test_monotone_in_errors(self, figure6_program):
        values = [
            worst_case_latency(figure6_program, "B", 3, r)
            for r in range(4)
        ]
        assert values == sorted(values)


class TestDelayTable:
    def test_figure7_shape(self, figure5_program, figure6_program):
        rows = worst_case_delay_table(
            figure6_program, figure5_program, {"A": 5, "B": 3}, 5
        )
        assert [row.errors for row in rows] == list(range(6))
        # Without IDA: exactly r periods.
        assert [row.without_ida for row in rows] == [
            8 * r for r in range(6)
        ]
        # With IDA beats without IDA at every positive error count.
        for row in rows[1:]:
            assert row.with_ida < row.without_ida

    def test_row_rendering(self, figure5_program, figure6_program):
        rows = worst_case_delay_table(
            figure6_program, figure5_program, {"A": 5, "B": 3}, 1
        )
        assert "|" in str(rows[1])

    def test_negative_errors_rejected(self, figure5_program, figure6_program):
        with pytest.raises(SimulationError) as error:
            worst_case_delay_table(
                figure6_program, figure5_program, {"A": 5, "B": 3}, -1
            )
        assert str(error.value) == "errors must be >= 0: -1"
