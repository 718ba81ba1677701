"""Multi-channel retrieval: choice rule, tuning cost, reference parity."""

import pytest

from repro.errors import SimulationError, SpecificationError
from repro.bdisk.file import FileSpec
from repro.bdisk.multichannel import design_multichannel_program
from repro.api.scenario import ChannelSpec
from tests.oracles import sim_reference as reference
from repro.sim.client import (
    best_channel,
    retrieve,
    retrieve_multichannel,
)
from repro.sim.faults import BernoulliFaults, NoFaults


def channel_set(count, *, assignment="striped", tuning_cost=0, quorum=1):
    files = [
        FileSpec("a", 2, 10),
        FileSpec("b", 3, 15),
        FileSpec("c", 2, 20),
        FileSpec("d", 4, 30),
    ]
    return design_multichannel_program(
        files,
        ChannelSpec(
            count=count,
            assignment=assignment,
            tuning_cost=tuning_cost,
            quorum=quorum,
        ),
    ).channel_set


def same_outcome(fast, slow):
    return (
        fast.file == slow.file
        and fast.start == slow.start
        and fast.completed == slow.completed
        and fast.channel == slow.channel
        and fast.switched == slow.switched
        and fast.finish_slot == slow.finish_slot
        and fast.latency == slow.latency
    )


class TestChoiceRule:
    def test_choice_is_deterministic_and_fault_blind(self):
        channels = channel_set(3, assignment="replicated", tuning_cost=2)
        for start in range(0, 30):
            for tuned in range(3):
                first = best_channel(
                    channels, "a", 2, start=start, tuned=tuned
                )
                again = best_channel(
                    channels, "a", 2, start=start, tuned=tuned
                )
                assert first == again
                # The scored finish is the slot-walking probe's.
                channel, listen, horizon, finish = first
                probe = reference.retrieve(
                    channels.programs[channel], "a", 2, start=listen,
                    max_slots=horizon,
                )
                assert finish == probe.finish_slot

    def test_prohibitive_tuning_cost_pins_the_tuned_channel(self):
        # A tuning cost longer than any data cycle makes re-tuning
        # strictly worse than waiting out a full rotation in place, so
        # a rational client never leaves a channel that carries the
        # file.
        channels = channel_set(3, assignment="replicated", tuning_cost=100)
        for tuned in range(3):
            channel, listen, _, _ = best_channel(
                channels, "b", 3, start=5, tuned=tuned
            )
            assert channel == tuned
            assert listen == 5

    def test_zero_cost_ties_go_to_lowest_channel(self):
        channels = channel_set(2, assignment="replicated", tuning_cost=0)
        channel, _, _, _ = best_channel(
            channels, "b", 3, start=7, tuned=1
        )
        assert channel == 0

    def test_negative_start_rejected(self):
        # retrieve_multichannel refuses a start before the program
        # begins; the choice it is built on must not answer one either.
        channels = channel_set(2, assignment="replicated", tuning_cost=2)
        for tuned in range(2):
            with pytest.raises(SpecificationError):
                best_channel(channels, "a", 2, start=-3, tuned=tuned)

    def test_among_restricts_candidates(self):
        channels = channel_set(3, assignment="replicated")
        channel, _, _, _ = best_channel(
            channels, "a", 2, start=0, tuned=0, among=(2,)
        )
        assert channel == 2


class TestRetrieveMultichannel:
    def test_k1_is_bit_identical_to_single_channel_retrieve(self):
        channels = channel_set(1)
        program = channels.programs[0]
        for file, m in (("a", 2), ("b", 3), ("c", 2), ("d", 4)):
            for start in range(0, 2 * program.data_cycle_length, 7):
                single = retrieve(program, file, m, start=start)
                multi = retrieve_multichannel(
                    channels, file, m, start=start
                )
                assert multi.completed == single.completed
                assert multi.latency == single.latency
                assert multi.finish_slot == single.finish_slot
                assert multi.received == single.received
                assert multi.channel == 0
                assert not multi.switched

    def test_k1_faulty_is_bit_identical_too(self):
        channels = channel_set(1)
        program = channels.programs[0]
        for seed in (1, 7):
            fault = lambda: BernoulliFaults(0.3, seed=seed)  # noqa: E731
            for start in (0, 5, 11):
                single = retrieve(
                    program, "b", 3, start=start, faults=fault()
                )
                multi = retrieve_multichannel(
                    channels, "b", 3, start=start, faults=[fault()]
                )
                assert multi.completed == single.completed
                assert multi.latency == single.latency
                assert multi.finish_slot == single.finish_slot

    def test_tuning_cost_is_paid_exactly_on_switch(self):
        channels = channel_set(2, tuning_cost=3)
        for file in ("a", "b", "c", "d"):
            home = channels.channels_for(file)[0]
            away = 1 - home
            stayed = retrieve_multichannel(
                channels, file, 2, start=0, tuned=home
            )
            moved = retrieve_multichannel(
                channels, file, 2, start=0, tuned=away
            )
            assert not stayed.switched
            assert moved.switched
            assert moved.channel == home

    def test_fault_length_mismatch_rejected(self):
        channels = channel_set(2)
        with pytest.raises(SimulationError, match="per channel"):
            retrieve_multichannel(
                channels, "a", 2, faults=[NoFaults()]
            )


class TestReferenceParity:
    """The fast walker and the slot-walking seed must agree bit-for-bit."""

    @pytest.mark.parametrize("count,assignment,tuning_cost", [
        (1, "striped", 0),
        (2, "striped", 2),
        (3, "replicated", 1),
    ])
    def test_clean_channels(self, count, assignment, tuning_cost):
        channels = channel_set(
            count, assignment=assignment, tuning_cost=tuning_cost
        )
        for file, m in (("a", 2), ("b", 3), ("d", 4)):
            for start in range(0, 40, 3):
                for tuned in range(count):
                    fast = retrieve_multichannel(
                        channels, file, m, start=start, tuned=tuned
                    )
                    slow = reference.retrieve_multichannel(
                        channels, file, m, start=start, tuned=tuned
                    )
                    assert same_outcome(fast, slow), (file, start, tuned)

    def test_faulty_channels(self):
        channels = channel_set(2, assignment="replicated", tuning_cost=1)
        faults = lambda: [  # noqa: E731
            BernoulliFaults(0.3, seed=11),
            BernoulliFaults(0.3, seed=12),
        ]
        for start in range(0, 30, 2):
            for tuned in range(2):
                fast = retrieve_multichannel(
                    channels, "c", 2, start=start, tuned=tuned,
                    faults=faults(),
                )
                slow = reference.retrieve_multichannel(
                    channels, "c", 2, start=start, tuned=tuned,
                    faults=faults(),
                )
                assert same_outcome(fast, slow), (start, tuned)
