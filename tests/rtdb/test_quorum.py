"""r-of-k quorum-consistent versioned reads over a channel set."""

import pytest

from repro.errors import SimulationError
from repro.bdisk.file import FileSpec
from repro.bdisk.multichannel import design_multichannel_program
from repro.api.scenario import ChannelSpec
from tests.oracles import rtdb_reference as reference
from repro.rtdb.updates import (
    QUORUM_OUTCOMES,
    UpdatingServer,
    retrieve_versioned,
    retrieve_versioned_quorum,
)
from repro.sim.faults import AdversarialFaults, BernoulliFaults


def channel_set(count, *, quorum=1, tuning_cost=0, assignment="replicated"):
    files = [FileSpec("x", 2, 10), FileSpec("y", 3, 15)]
    return design_multichannel_program(
        files,
        ChannelSpec(
            count=count,
            assignment=assignment,
            quorum=quorum,
            tuning_cost=tuning_cost,
        ),
    ).channel_set


def server(period=40):
    return UpdatingServer({"x": period, "y": period})


def same_read(fast, slow):
    return (
        fast.outcome == slow.outcome
        and fast.version == slow.version
        and fast.finish_slot == slow.finish_slot
        and fast.latency == slow.latency
        and fast.tuned == slow.tuned
        and fast.switches == slow.switches
        and fast.copies == slow.copies
        and fast.stale_copies == slow.stale_copies
        and fast.age_at_completion == slow.age_at_completion
        and fast.torn_discards == slow.torn_discards
    )


class TestDegenerate:
    def test_1_of_1_is_bit_identical_to_retrieve_versioned(self):
        channels = channel_set(1)
        srv = server()
        program = channels.programs[0]
        for start in range(0, 40, 3):
            single = retrieve_versioned(program, srv, "x", 2, start=start)
            quorum = retrieve_versioned_quorum(
                channels, srv, "x", 2, start=start
            )
            assert quorum.outcome == "ok"
            assert quorum.version == single.version
            assert quorum.finish_slot == single.finish_slot
            assert quorum.latency == single.latency
            assert quorum.age_at_completion == single.age_at_completion
            assert quorum.torn_discards == single.torn_discards
            assert quorum.copies == 1
            assert quorum.switches == 0


class TestQuorumAssembly:
    def test_2_of_3_assembles_with_long_update_period(self):
        channels = channel_set(3, quorum=2, tuning_cost=1)
        read = retrieve_versioned_quorum(
            channels, server(period=10_000), "x", 2, start=0
        )
        assert read.outcome == "ok"
        assert read.completed
        assert read.copies >= 2
        assert read.switches >= 1
        assert read.latency == read.finish_slot - read.start + 1

    def test_outcomes_are_in_the_published_vocabulary(self):
        for count, quorum, period in ((3, 2, 7), (2, 2, 5), (3, 3, 9)):
            channels = channel_set(count, quorum=quorum)
            read = retrieve_versioned_quorum(
                channels, server(period=period), "x", 2, start=0
            )
            assert read.outcome in QUORUM_OUTCOMES

    def test_rapid_updates_force_mismatch(self):
        # An update period shorter than two sequential copy reads but
        # long enough for each copy alone: both copies complete cleanly
        # yet never share a version - the read is a mismatch, and the
        # first copy is counted as stale (wasted).
        channels = channel_set(2, quorum=2)
        read = retrieve_versioned_quorum(
            channels, UpdatingServer({"x": 8, "y": 8}), "x", 2, start=0
        )
        assert read.outcome == "mismatch"
        assert not read.completed
        assert read.latency is None
        assert read.copies == 2
        assert read.stale_copies == 1

    def test_lost_channel_forces_incomplete(self):
        # One candidate channel is fully dead; a 2-of-2 quorum cannot
        # assemble and the read reports the exhausted horizon.
        channels = channel_set(2, quorum=2)
        dead = AdversarialFaults(range(0, 5000))
        read = retrieve_versioned_quorum(
            channels,
            server(period=10_000),
            "x",
            2,
            start=0,
            faults=[None, dead],
            max_slots=60,
        )
        assert read.outcome == "incomplete"
        assert read.latency is None

    def test_quorum_override_beats_channel_set_default(self):
        channels = channel_set(3, quorum=1)
        read = retrieve_versioned_quorum(
            channels, server(period=10_000), "x", 2, start=0, quorum=3
        )
        assert read.copies >= 3

    def test_thin_coverage_rejected(self):
        channels = channel_set(2, assignment="striped")
        # Striped: each file sits on one channel; a 2-copy quorum is
        # impossible and must fail loudly.
        with pytest.raises(SimulationError, match="quorum"):
            retrieve_versioned_quorum(
                channels, server(), "x", 2, start=0, quorum=2
            )


class TestReferenceParity:
    """Fast quorum assembly equals the slot-walking seed bit-for-bit."""

    @pytest.mark.parametrize("quorum,period,tuning_cost", [
        (1, 35, 0),
        (2, 60, 1),
        (3, 90, 2),
        (2, 6, 0),
    ])
    def test_clean_channels(self, quorum, period, tuning_cost):
        channels = channel_set(3, quorum=quorum, tuning_cost=tuning_cost)
        srv = server(period=period)
        for start in range(0, 40, 5):
            for tuned in range(3):
                fast = retrieve_versioned_quorum(
                    channels, srv, "y", 3, start=start, tuned=tuned
                )
                slow = reference.retrieve_versioned_quorum(
                    channels, srv, "y", 3, start=start, tuned=tuned
                )
                assert same_read(fast, slow), (start, tuned)

    def test_faulty_channels(self):
        channels = channel_set(3, quorum=2, tuning_cost=1)
        srv = server(period=50)
        faults = lambda: [  # noqa: E731
            BernoulliFaults(0.2, seed=3),
            None,
            BernoulliFaults(0.2, seed=5),
        ]
        for start in range(0, 30, 4):
            fast = retrieve_versioned_quorum(
                channels, srv, "x", 2, start=start, faults=faults(),
                max_slots=200,
            )
            slow = reference.retrieve_versioned_quorum(
                channels, srv, "x", 2, start=start, faults=faults(),
                max_slots=200,
            )
            assert same_read(fast, slow), start
