"""Property tests: occurrence-walking rtdb clients vs the slot-walkers.

The versioned retrieval and transaction execution rewritten over the
occurrence index (:mod:`repro.rtdb.updates`,
:mod:`repro.rtdb.transactions`) must be *bit-identical* to the seed
slot-walking implementations preserved in :mod:`tests.oracles.rtdb_reference` -
every field: version, latency, age, torn discards, commit status.
These properties pin that down on randomized programs, fault models,
update periods, and phases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.errors import SimulationError
from tests.oracles import rtdb_reference as reference
from repro.rtdb.items import DataItem
from repro.rtdb.temporal import TemporalConstraint
from repro.rtdb.transactions import ReadTransaction, execute_transaction
from repro.rtdb.updates import UpdatingServer, retrieve_versioned
from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    NoFaults,
)


@st.composite
def programs(draw, max_files=3, max_length=12, max_blocks=6):
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
    kind = draw(
        st.sampled_from(["none", "bernoulli", "burst", "adversarial"])
    )
    seed = draw(st.integers(0, 2**16))
    if kind == "none":
        return lambda: NoFaults()
    if kind == "bernoulli":
        p = draw(st.floats(0.0, 0.9))
        return lambda: BernoulliFaults(p, seed=seed)
    if kind == "burst":
        p_enter = draw(st.floats(0.0, 0.5))
        p_exit = draw(st.floats(0.1, 1.0))
        return lambda: BurstFaults(p_enter, p_exit, seed=seed)
    slots = draw(st.sets(st.integers(0, 300), max_size=30))
    return lambda: AdversarialFaults(slots)


class TestVersionedRetrievalEquivalence:
    @given(program=programs(), faults=fault_models(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_versioned_retrievals(
        self, program, faults, data
    ):
        file = data.draw(st.sampled_from(program.files))
        m_needed = data.draw(
            st.integers(1, program.block_count(file))
        )
        period = data.draw(st.integers(1, 4 * program.data_cycle_length))
        start = data.draw(st.integers(0, 3 * program.data_cycle_length))
        max_slots = data.draw(
            st.one_of(
                st.none(),
                st.integers(0, 5 * program.data_cycle_length),
            )
        )
        server = UpdatingServer({file: period})
        if max_slots == 0:
            # The seed walked no slot; the walker refuses the horizon.
            with pytest.raises(
                SimulationError, match="^horizon must be >= 1: 0$"
            ):
                retrieve_versioned(
                    program, server, file, m_needed,
                    start=start, faults=faults(), max_slots=max_slots,
                )
            return
        expected = reference.retrieve_versioned(
            program, server, file, m_needed,
            start=start, faults=faults(), max_slots=max_slots,
        )
        actual = retrieve_versioned(
            program, server, file, m_needed,
            start=start, faults=faults(), max_slots=max_slots,
        )
        assert actual == expected

    @given(program=programs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shared_model_instance_is_safe(self, program, data):
        """Both paths may share one (stateful) fault model instance."""
        file = data.draw(st.sampled_from(program.files))
        period = data.draw(st.integers(1, 20))
        model = BurstFaults(0.2, 0.5, seed=data.draw(st.integers(0, 99)))
        server = UpdatingServer({file: period})
        expected = reference.retrieve_versioned(
            program, server, file, 1, start=5, faults=model
        )
        actual = retrieve_versioned(
            program, server, file, 1, start=5, faults=model
        )
        assert actual == expected

    @given(program=programs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_torn_read_regime(self, program, data):
        """Fast updates (period < cycle) - the torn-read stress case."""
        file = data.draw(st.sampled_from(program.files))
        m_needed = program.block_count(file)
        period = data.draw(
            st.integers(1, max(1, program.data_cycle_length - 1))
        )
        server = UpdatingServer({file: period})
        expected = reference.retrieve_versioned(
            program, server, file, m_needed,
            max_slots=6 * program.data_cycle_length,
        )
        actual = retrieve_versioned(
            program, server, file, m_needed,
            max_slots=6 * program.data_cycle_length,
        )
        assert actual == expected
        assert actual.torn_discards == expected.torn_discards


class TestTransactionEquivalence:
    def _world(self, program, data, slot_ms):
        items = {}
        for name in program.files:
            blocks = data.draw(
                st.integers(1, program.block_count(name)),
                label=f"blocks:{name}",
            )
            max_age = data.draw(
                st.integers(
                    int(blocks * slot_ms) + 1,
                    int(8 * program.data_cycle_length * slot_ms),
                ),
                label=f"age:{name}",
            )
            items[name] = DataItem(
                name,
                name.encode() * 4,
                TemporalConstraint(max_age),
                blocks=blocks,
            )
        return items

    @given(program=programs(), faults=fault_models(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_static_transactions_bit_identical(
        self, program, faults, data
    ):
        slot_ms = 10
        items = self._world(program, data, slot_ms)
        names = data.draw(
            st.permutations(sorted(items)), label="order"
        )
        txn = ReadTransaction(
            "t",
            names,
            data.draw(st.integers(1, 12 * program.data_cycle_length)),
        )
        start = data.draw(st.integers(0, 2 * program.data_cycle_length))
        expected = reference.execute_transaction(
            program, txn, items,
            start=start, slot_ms=slot_ms, faults=faults(),
        )
        actual = execute_transaction(
            program, txn, items,
            start=start, slot_ms=slot_ms, faults=faults(),
        )
        assert actual == expected
        assert actual.committed == expected.committed

    @given(program=programs(), faults=fault_models(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_versioned_transactions_bit_identical(
        self, program, faults, data
    ):
        slot_ms = 10
        items = self._world(program, data, slot_ms)
        periods = {
            name: data.draw(
                st.integers(1, 4 * program.data_cycle_length),
                label=f"period:{name}",
            )
            for name in items
        }
        server = UpdatingServer(periods)
        names = data.draw(
            st.permutations(sorted(items)), label="order"
        )
        txn = ReadTransaction(
            "t",
            names,
            data.draw(st.integers(1, 12 * program.data_cycle_length)),
        )
        start = data.draw(st.integers(0, 2 * program.data_cycle_length))
        expected = reference.execute_transaction(
            program, txn, items,
            start=start, slot_ms=slot_ms, faults=faults(), server=server,
        )
        actual = execute_transaction(
            program, txn, items,
            start=start, slot_ms=slot_ms, faults=faults(), server=server,
        )
        assert actual == expected
        assert actual.torn_discards == expected.torn_discards
        assert [r.version for r in actual.versioned] == [
            r.version for r in expected.versioned
        ]
        assert [r.latency for r in actual.versioned] == [
            r.latency for r in expected.versioned
        ]
