"""Tests for client-side retrieval."""

import pytest

from repro.sim.client import default_horizon, listen_horizon, retrieve
from repro.sim.faults import AdversarialFaults, BernoulliFaults
from repro.errors import SimulationError


class TestListenHorizon:
    def test_max_slots_when_given_else_the_default(self, figure6_program):
        assert listen_horizon(figure6_program, 3, 7) == 7
        assert listen_horizon(figure6_program, 3, None) == (
            default_horizon(figure6_program, 3)
        ) == 5 * figure6_program.data_cycle_length


class TestFaultFree:
    def test_figure6_phase0_file_a(self, figure6_program):
        result = retrieve(figure6_program, "A", 5)
        assert result.completed
        assert result.latency == 8  # collects at slots 0,2,3,5,7
        assert len(result.received) == 5

    def test_figure6_phase0_file_b(self, figure6_program):
        result = retrieve(figure6_program, "B", 3)
        assert result.completed
        assert result.latency == 7  # B at slots 1, 4, 6

    def test_phase_shifts_latency(self, figure6_program):
        latencies = {
            phase: retrieve(figure6_program, "B", 3, start=phase).latency
            for phase in range(16)
        }
        assert min(latencies.values()) >= 3
        assert max(latencies.values()) <= 7 + figure6_program.max_gap("B")

    def test_unknown_file_rejected(self, figure6_program):
        with pytest.raises(SimulationError):
            retrieve(figure6_program, "Z", 1)


class TestWithFaults:
    def test_adversarial_loss_delays(self, figure6_program):
        # B appears at slots 1, 4, 6; kill slot 6 -> next B at 9.
        result = retrieve(
            figure6_program, "B", 3, faults=AdversarialFaults([6])
        )
        assert result.completed
        assert result.latency == 10
        assert result.lost_slots == (6,)

    def test_ida_any_distinct_blocks_suffice(self, figure6_program):
        # Killing B's first two appearances still completes with
        # the rotated blocks - no full-period wait.
        result = retrieve(
            figure6_program, "B", 3, faults=AdversarialFaults([1, 4])
        )
        assert result.completed
        assert result.latency <= 7 + 2 * figure6_program.max_gap("B")

    def test_without_ida_waits_full_period(self, figure5_program):
        # Flat program: B'2 lost at slot 4 -> same block only at 4 + 8.
        result = retrieve(
            figure5_program,
            "B",
            3,
            faults=AdversarialFaults([4]),
            need_distinct=False,
        )
        assert result.completed
        assert result.latency == 4 + 8 + 1

    def test_specific_mode_needs_every_block(self, figure5_program):
        result = retrieve(figure5_program, "A", 5, need_distinct=False)
        assert result.completed
        assert set(result.received) == set(range(5))

    def test_total_loss_never_completes(self, figure6_program):
        result = retrieve(
            figure6_program,
            "B",
            3,
            faults=BernoulliFaults(1.0),
            max_slots=100,
        )
        assert not result.completed
        assert result.latency is None
        assert result.finish_slot is None

    def test_deadline_predicate(self, figure6_program):
        result = retrieve(figure6_program, "B", 3)
        assert result.met_deadline(7)
        assert not result.met_deadline(6)

    def test_incomplete_never_meets_deadline(self, figure6_program):
        result = retrieve(
            figure6_program, "B", 3,
            faults=BernoulliFaults(1.0), max_slots=50,
        )
        assert not result.met_deadline(10_000)
