"""The occurrence kernel shared by every scalar walker.

:func:`repro.sim.client.fault_batches` reports and decides shifted slots
for spliced segments, decides nothing on the clean channel, and refuses
a negative start - for :func:`~repro.sim.client.retrieve` in both modes
and :func:`~repro.rtdb.updates.retrieve_versioned`, on every channel.
(Batch widths and the decision bound are in ``test_fault_batches.py``.)
"""

import pytest

from repro.bdisk.flat import build_aida_flat_program
from repro.errors import SimulationError
from repro.rtdb.updates import UpdatingServer, retrieve_versioned
from repro.sim.client import fault_batches, retrieve
from repro.sim.faults import BernoulliFaults, BurstFaults, NoFaults


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
