"""Geometric fault batches: walkers decide little past what they hear.

The occurrence walkers ask the fault model about batches of service
slots whose widths start at ``FAULT_BATCH_FIRST`` and double up to
``FAULT_BATCH_MAX``.  A completed retrieval that heard ``k`` occurrences
(up to and including its finish) therefore decides at most ``2k + 4``
slots, and no walk ever decides a slot past its horizon.
"""

from hypothesis import given, settings, strategies as st

from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.rtdb.updates import UpdatingServer, retrieve_versioned
from repro.sim.client import (
    FAULT_BATCH_FIRST,
    FAULT_BATCH_MAX,
    fault_batches,
    retrieve,
)
from repro.sim.faults import AdversarialFaults, BernoulliFaults, BurstFaults


class CountingFaults:
    """Delegates to a fault model and counts every slot it decides."""

    def __init__(self, model):
        self.model = model
        self.decided = 0
        self.widths = []

    def is_lost(self, t):
        self.decided += 1
        self.widths.append(1)
        return self.model.is_lost(t)

    def lost_in(self, slots):
        self.decided += len(slots)
        self.widths.append(len(slots))
        return self.model.lost_in(slots)


@st.composite
def programs(draw, max_files=3, max_length=10, max_blocks=8):
    n_files = draw(st.integers(1, max_files))
    names = [f"f{i}" for i in range(n_files)]
    length = draw(st.integers(n_files, max_length))
    cycle = [draw(st.sampled_from(names + [IDLE])) for _ in range(length)]
    for index, name in enumerate(names):
        cycle[index % length] = name
    block_counts = {name: draw(st.integers(1, max_blocks)) for name in names}
    return BroadcastProgram(Schedule(cycle), block_counts)


@st.composite
def faulty_models(draw):
    kind = draw(st.sampled_from(["bernoulli", "burst", "adversarial"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "bernoulli":
        return BernoulliFaults(draw(st.floats(0.0, 0.9)), seed=seed)
    if kind == "burst":
        return BurstFaults(
            draw(st.floats(0.0, 0.5)), draw(st.floats(0.1, 1.0)), seed=seed
        )
    return AdversarialFaults(draw(st.sets(st.integers(0, 300), max_size=40)))


def heard(program, file, start, last):
    """Occurrences of ``file`` in slots ``[start, last]``."""
    return program.schedule.count_in_window(file, start, last - start + 1)


def bounded(program, file, start, horizon, result_finish, decided):
    if result_finish is not None:
        assert decided <= 2 * heard(program, file, start, result_finish) + 4
    # Never a decision past the horizon, complete or not.
    assert decided <= program.schedule.count_in_window(file, start, horizon)


class TestDecisionBound:
    @given(program=programs(), model=faulty_models(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_retrieve(self, program, model, data):
        file = data.draw(st.sampled_from(program.files))
        m = data.draw(st.integers(1, program.block_count(file) + 1))
        start = data.draw(st.integers(0, 3 * program.data_cycle_length))
        horizon = (m + 2) * program.data_cycle_length
        counter = CountingFaults(model)
        result = retrieve(program, file, m, start=start, faults=counter)
        bounded(
            program, file, start, horizon, result.finish_slot,
            counter.decided,
        )

    @given(program=programs(), model=faulty_models(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_retrieve_versioned(self, program, model, data):
        file = data.draw(st.sampled_from(program.files))
        m = data.draw(st.integers(1, program.block_count(file) + 1))
        start = data.draw(st.integers(0, 3 * program.data_cycle_length))
        period = data.draw(st.integers(1, 4 * program.data_cycle_length))
        horizon = 6 * program.data_cycle_length
        counter = CountingFaults(model)
        result = retrieve_versioned(
            program, UpdatingServer({file: period}), file, m,
            start=start, faults=counter, max_slots=horizon,
        )
        bounded(
            program, file, start, horizon, result.finish_slot,
            counter.decided,
        )

    def test_early_finish_decides_only_the_first_batch(self):
        # A lossless model on a one-block file: the walk finishes at its
        # first occurrence, deciding only the first batch.
        program = build_aida_flat_program([("A", 1, 1)])
        counter = CountingFaults(BernoulliFaults(0.0, seed=1))
        result = retrieve(
            program, "A", 1, start=0, faults=counter, max_slots=100
        )
        assert result.completed
        assert counter.decided == FAULT_BATCH_FIRST


class TestBatchWidths:
    def test_widths_double_up_to_the_cap(self):
        program = build_aida_flat_program([("A", 1, 1)])
        index = program.index
        counter = CountingFaults(BernoulliFaults(0.5, seed=3))
        batches = list(fault_batches(index, "A", 0, 2_000, counter))
        widths = [len(slots) for slots, _, _ in batches]
        assert widths[:6] == [4, 8, 16, 32, 64, 128]
        assert max(widths) == FAULT_BATCH_MAX
        assert sum(widths) == program.schedule.count_in_window("A", 0, 2_000)
        slots = [slot for batch, _, _ in batches for slot in batch]
        assert slots == sorted(slots) and slots[-1] < 2_000

    def test_batches_agree_with_per_slot_decisions(self):
        program = build_aida_flat_program([("A", 2, 5), ("B", 3, 4)])
        model = BernoulliFaults(0.3, seed=9)
        for slots, blocks, lost in fault_batches(
            program.index, "B", 7, 400, model
        ):
            for slot, block, is_lost in zip(slots, blocks, lost):
                content = program.slot_content(slot)
                assert (content.file, content.block_index) == ("B", block)
                assert is_lost == model.is_lost(slot)
