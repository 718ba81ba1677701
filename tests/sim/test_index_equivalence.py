"""Property tests: indexed fast paths vs the seed slot-walking spec.

The occurrence-indexed simulation core (``ProgramIndex`` + the
occurrence-walking ``retrieve``/``broadcast_retrieve``, the phase-
memoizing runner) and the rotation arithmetic of window minima and
delays must be *bit-identical* to the seed implementations preserved
in :mod:`tests.oracles.sim_reference`.
These properties pin that down on randomized programs, phases, fault
models, and requirements.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.errors import SimulationError
from repro.ida.dispersal import disperse
from tests.oracles import sim_reference as reference
from repro.sim.channel import ByteChannel, broadcast_retrieve
from repro.sim.client import retrieve
from repro.sim.delay import worst_case_delay
from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    NoFaults,
)
from repro.sim.runner import simulate_requests
from repro.sim.workload import Request


@st.composite
def programs(draw, max_files=3, max_length=12, max_blocks=8):
    """Random small programs: idle slots, shared slots, rotation."""
    n_files = draw(st.integers(1, max_files))
    names = [f"f{i}" for i in range(n_files)]
    length = draw(st.integers(n_files, max_length))
    cycle = [
        draw(st.sampled_from(names + [IDLE])) for _ in range(length)
    ]
    for index, name in enumerate(names):
        cycle[index % length] = name
    block_counts = {
        name: draw(st.integers(1, max_blocks)) for name in names
    }
    return BroadcastProgram(Schedule(cycle), block_counts)


@st.composite
def fault_models(draw):
    """One fault model of each kind, freshly constructed per use."""
    kind = draw(st.sampled_from(["none", "bernoulli", "burst", "adversarial"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "none":
        return lambda: NoFaults()
    if kind == "bernoulli":
        p = draw(st.floats(0.0, 1.0))
        return lambda: BernoulliFaults(p, seed=seed)
    if kind == "burst":
        p_enter = draw(st.floats(0.0, 0.5))
        p_exit = draw(st.floats(0.1, 1.0))
        return lambda: BurstFaults(p_enter, p_exit, seed=seed)
    slots = draw(st.sets(st.integers(0, 200), max_size=20))
    return lambda: AdversarialFaults(slots)


class TestSlotContent:
    @given(program=programs())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_naive_formula(self, program):
        """O(1) table lookups == the seed prefix-count arithmetic."""
        for t in range(2 * program.data_cycle_length):
            assert program.slot_content(t) == reference.slot_content(
                program, t
            )
            assert program.index.content(t) == program.slot_content(t)


class TestRetrieveEquivalence:
    @given(
        program=programs(),
        faults=fault_models(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_retrievals(self, program, faults, data):
        file = data.draw(st.sampled_from(program.files))
        m_needed = data.draw(
            st.integers(1, program.block_count(file) + 1)
        )
        start = data.draw(st.integers(0, 3 * program.data_cycle_length))
        need_distinct = data.draw(st.booleans())
        max_slots = data.draw(
            st.one_of(
                st.none(),
                st.integers(0, 4 * program.data_cycle_length),
            )
        )
        if max_slots == 0:
            # The seed walked no slot; the walker refuses the horizon.
            with pytest.raises(
                SimulationError, match="^horizon must be >= 1: 0$"
            ):
                retrieve(
                    program, file, m_needed,
                    start=start, faults=faults(),
                    need_distinct=need_distinct, max_slots=max_slots,
                )
            return
        expected = reference.retrieve(
            program, file, m_needed,
            start=start, faults=faults(),
            need_distinct=need_distinct, max_slots=max_slots,
        )
        actual = retrieve(
            program, file, m_needed,
            start=start, faults=faults(),
            need_distinct=need_distinct, max_slots=max_slots,
        )
        assert actual == expected

    @given(program=programs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shared_model_instance_is_safe(self, program, data):
        """Both paths may share one (stateful) fault model instance."""
        file = data.draw(st.sampled_from(program.files))
        model = BurstFaults(0.2, 0.5, seed=data.draw(st.integers(0, 99)))
        expected = reference.retrieve(
            program, file, 1, start=5, faults=model
        )
        actual = retrieve(program, file, 1, start=5, faults=model)
        assert actual == expected


class TestWindowEquivalence:
    @given(program=programs(max_length=10), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_min_distinct_in_window(self, program, data):
        file = data.draw(st.sampled_from(program.files))
        window = data.draw(
            st.integers(0, 2 * program.data_cycle_length + 1)
        )
        assert program.min_distinct_in_window(
            file, window
        ) == reference.min_distinct_in_window(program, file, window)

    @given(program=programs())
    @settings(max_examples=20, deadline=None)
    def test_empty_window_holds_nothing(self, program):
        for file in program.files:
            assert program.min_distinct_in_window(file, 0) == 0

    @given(program=programs())
    @settings(max_examples=40, deadline=None)
    def test_count_in_window(self, program):
        schedule = program.schedule
        cycle = program.data_cycle_length
        for file in program.files:
            for start in range(0, 2 * cycle, 3):
                for length in (0, 1, cycle // 2 + 1, cycle, cycle + 3):
                    naive = sum(
                        1
                        for t in range(start, start + length)
                        if (c := reference.slot_content(program, t))
                        is not None and c.file == file
                    )
                    assert schedule.count_in_window(
                        file, start, length
                    ) == naive


class TestDelayEquivalence:
    @given(
        program=programs(max_files=2, max_length=8, max_blocks=4),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_worst_case_delay(self, program, data):
        file = data.draw(st.sampled_from(program.files))
        m_needed = data.draw(
            st.integers(1, program.block_count(file))
        )
        errors = data.draw(st.integers(0, 2))
        need_distinct = data.draw(st.booleans())
        assert worst_case_delay(
            program, file, m_needed, errors, need_distinct=need_distinct
        ) == reference.worst_case_delay(
            program, file, m_needed, errors, need_distinct=need_distinct
        )


class TestRunnerEquivalence:
    def _requests(self, rng, program, count, horizon):
        files = list(program.files)
        return [
            Request(
                time=rng.randrange(horizon),
                file=rng.choice(files),
                deadline=rng.randint(1, 4 * program.data_cycle_length),
            )
            for _ in range(count)
        ]

    @given(
        program=programs(),
        faults=fault_models(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_request_reference(self, program, faults, seed):
        """Grouping by file and phase memoization change nothing."""
        rng = random.Random(seed)
        requests = sorted(
            self._requests(
                rng, program, count=25,
                horizon=3 * program.data_cycle_length,
            ),
            key=lambda r: r.time,
        )
        sizes = {f: program.block_count(f) for f in program.files}
        model = faults()
        expected = [
            reference.retrieve(
                program, r.file, sizes[r.file],
                start=r.time, faults=model,
            )
            for r in requests
        ]
        result = simulate_requests(
            program, requests, file_sizes=sizes, faults=faults()
        )
        assert list(result.retrievals) == expected
        misses = sum(
            1
            for r, q in zip(expected, requests)
            if not r.met_deadline(q.deadline)
        )
        assert result.deadline_misses == misses


class TestChannelEquivalence:
    @given(
        error_rate=st.floats(0.0, 0.02),
        seed=st.integers(0, 2**16),
        start=st.integers(0, 30),
    )
    @settings(max_examples=20, deadline=None)
    def test_occurrence_walk_matches_slot_scan(
        self, error_rate, seed, start
    ):
        program = build_aida_flat_program([("A", 3, 6), ("B", 2, 4)])
        payload = b"payload bytes for equivalence " * 4
        on_air = {"A": disperse(payload, 3, 6, file_id="A")}
        channel = ByteChannel(error_rate, seed=seed)

        # The seed loop: scan every slot, transmit on A's slots only.
        horizon = 5 * program.data_cycle_length
        naive_log = []
        naive_payload = None
        held = {}
        for t in range(start, start + horizon):
            content = reference.slot_content(program, t)
            if content is None or content.file != "A":
                continue
            frame = channel.transmit(on_air["A"][content.block_index], t)
            naive_log.append(frame)
            if frame.delivered is not None:
                held.setdefault(frame.delivered.index, frame.delivered)
                if len(held) >= 3:
                    from repro.ida.dispersal import reconstruct

                    naive_payload = reconstruct(list(held.values()))
                    break

        restored, log = broadcast_retrieve(
            program, on_air, "A", 3, channel,
            start=start, max_slots=horizon,
        )
        assert restored == naive_payload
        assert log == naive_log
