"""The occurrence kernel of the one scalar walker.

:func:`repro.sim.client.fault_batches` reports and decides shifted slots
for spliced segments, decides nothing on the clean channel, and refuses
a negative start - for :func:`~repro.sim.client.retrieve` in both modes
and :func:`~repro.rtdb.updates.retrieve_versioned`, on every channel.
Every entry that walks refuses a horizon below one slot.  (Batch widths
and the decision bound are in ``test_fault_batches.py``.)
"""

from pathlib import Path

import pytest

from repro.api import Scenario
from repro.api.engine import BroadcastEngine
from repro.bdisk.flat import build_aida_flat_program
from repro.errors import SimulationError
from repro.ida.dispersal import disperse
from repro.rtdb.updates import (
    UpdatingServer,
    retrieve_versioned,
    retrieve_versioned_quorum,
)
from repro.server.airing import AirSchedule, Segment
from repro.sim.channel import ByteChannel, broadcast_retrieve
from repro.sim.client import fault_batches, retrieve, retrieve_multichannel
from repro.sim.faults import BernoulliFaults, BurstFaults, NoFaults
from repro.sim.runner import simulate_requests, simulate_requests_multichannel
from repro.sim.workload import Request


class CountingFaults:
    """Delegates to a fault model and counts the slots it decides."""

    def __init__(self, model):
        self.model = model
        self.decided = 0

    def is_lost(self, t):
        self.decided += 1
        return self.model.is_lost(t)

    def lost_in(self, slots):
        self.decided += len(slots)
        return self.model.lost_in(slots)


class TestShiftAndCleanStream:
    def test_shift_reports_and_decides_shifted_slots(self):
        program = build_aida_flat_program([("A", 2, 5), ("B", 3, 4)])
        model = BernoulliFaults(0.3, seed=9)
        plain = list(fault_batches(program.index, "B", 7, 400, model))
        counter = CountingFaults(model)
        shifted = list(
            fault_batches(program.index, "B", 7, 400, counter, shift=50)
        )
        assert [len(slots) for slots, _, _ in shifted] == [
            len(slots) for slots, _, _ in plain
        ]
        for (slots, blocks, _), (moved, moved_blocks, lost) in zip(
            plain, shifted
        ):
            assert moved == [slot + 50 for slot in slots]
            assert moved_blocks == blocks
            assert list(lost) == [model.is_lost(t) for t in moved]
        assert counter.decided == sum(len(slots) for slots, _, _ in plain)

    @pytest.mark.parametrize(
        "clean", [None, NoFaults()], ids=["clean", "none"]
    )
    def test_clean_channel_decides_nothing(self, clean):
        program = build_aida_flat_program([("A", 2, 5), ("B", 3, 4)])
        lossless = list(
            fault_batches(program.index, "A", 3, 300, BernoulliFaults(0.0))
        )
        batches = list(fault_batches(program.index, "A", 3, 300, clean))
        assert [(slots, blocks) for slots, blocks, _ in batches] == [
            (slots, blocks) for slots, blocks, _ in lossless
        ]
        for slots, _, lost in batches:
            assert not any(flag for flag, _ in zip(lost, slots))


class TestNegativeStart:
    """The channel has no slots before slot 0: every walker refuses a
    negative start instead of hearing (and deciding) phantom slots."""

    @pytest.mark.parametrize(
        "faults",
        [None, NoFaults(), BernoulliFaults(0.2, seed=4),
         BurstFaults(0.1, 0.5, seed=4)],
        ids=["clean", "none", "bernoulli", "burst"],
    )
    def test_retrieve(self, faults):
        program = build_aida_flat_program([("A", 2, 5), ("B", 3, 4)])
        with pytest.raises(SimulationError, match="before slot 0"):
            retrieve(program, "A", 2, start=-3, faults=faults)
        with pytest.raises(SimulationError, match="before slot 0"):
            retrieve(
                program, "A", 2, start=-3, faults=faults,
                need_distinct=False,
            )

    @pytest.mark.parametrize(
        "faults", [None, BurstFaults(0.1, 0.5, seed=4)],
        ids=["clean", "burst"],
    )
    def test_retrieve_versioned(self, faults):
        program = build_aida_flat_program([("A", 2, 5), ("B", 3, 4)])
        server = UpdatingServer({"A": 7, "B": 7})
        with pytest.raises(SimulationError, match="before slot 0"):
            retrieve_versioned(
                program, server, "A", 2, start=-3, faults=faults
            )

    def test_kernel(self):
        program = build_aida_flat_program([("A", 1, 1)])
        with pytest.raises(SimulationError, match="before slot 0"):
            next(fault_batches(program.index, "A", -1, 10, None))


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _multichannel():
    """examples/scenario_multichannel.json's aired channel set."""
    scenario = Scenario.from_file(EXAMPLES / "scenario_multichannel.json")
    return BroadcastEngine(scenario).design().channel_set


def _entries():
    """Every entry that walks, as ``name -> call(max_slots)``."""
    program = build_aida_flat_program([("A", 2, 5), ("B", 3, 4)])
    server = UpdatingServer({"A": 7, "B": 7})
    timeline = AirSchedule([
        Segment(0, program, update_periods={"A": 7, "B": 7})
    ])
    request = Request(time=3, file="A", deadline=20)
    on_air = {"A": disperse(b"horizon", 2, program.block_count("A"))}
    return {
        "broadcast_retrieve": lambda h: broadcast_retrieve(
            program, on_air, "A", 2, ByteChannel(0.0), max_slots=h
        ),
        "retrieve": lambda h: retrieve(program, "A", 2, max_slots=h),
        "retrieve-specific": lambda h: retrieve(
            program, "A", 2, need_distinct=False, max_slots=h
        ),
        "retrieve_versioned": lambda h: retrieve_versioned(
            program, server, "A", 2, max_slots=h
        ),
        "retrieve_multichannel": lambda h: retrieve_multichannel(
            _multichannel(), "air-tracks", 2, start=50, tuned=1,
            max_slots=h,
        ),
        "retrieve_versioned_quorum": lambda h: retrieve_versioned_quorum(
            _multichannel(), UpdatingServer({"air-tracks": 40}),
            "air-tracks", 2, start=50, tuned=1, max_slots=h,
        ),
        "simulate_requests": lambda h: simulate_requests(
            program, [request], file_sizes={"A": 2}, max_slots=h
        ),
        "simulate_requests_multichannel": lambda h: (
            simulate_requests_multichannel(
                _multichannel(),
                [Request(time=3, file="air-tracks", deadline=20)],
                file_sizes={"air-tracks": 2},
                max_slots=h,
            )
        ),
        "AirSchedule.retrieve": lambda h: timeline.retrieve(
            "A", 2, start=3, max_slots=h
        ),
        "AirSchedule.retrieve_versioned": (
            lambda h: timeline.retrieve_versioned(
                "A", 2, start=3, max_slots=h
            )
        ),
    }


class TestHorizonRule:
    """A listening horizon below one slot is refused at every entry
    that walks, with one text - never walked as a silent abort (a
    multi-channel client would report itself busy until before it
    started, and a request would count as a deadline miss)."""

    @pytest.mark.parametrize("max_slots", [0, -3])
    @pytest.mark.parametrize("entry", sorted(_entries()))
    def test_below_one_slot_raises(self, entry, max_slots):
        with pytest.raises(
            SimulationError, match=f"^horizon must be >= 1: {max_slots}$"
        ):
            _entries()[entry](max_slots)

    @pytest.mark.parametrize("entry", sorted(_entries()))
    def test_one_slot_walks(self, entry):
        _entries()[entry](1)
