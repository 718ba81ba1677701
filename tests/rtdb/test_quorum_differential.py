"""Differential tests: table-scored quorum reads vs the slot walkers.

:func:`repro.rtdb.updates.retrieve_versioned_quorum` scores channels
from the index's finish tables and walks copies in geometric fault
batches; :func:`repro.sim.client.best_channel` is the choice it makes.
Both must agree field for field with the slot-walking specs -
:func:`tests.oracles.rtdb_reference.retrieve_versioned_quorum` and a
choice rule re-derived here from
:func:`tests.oracles.sim_reference.retrieve` probes - on small random
channel sets: up to three channels, any quorum
the carriers allow, tuning costs 0-3, update periods on both sides of
the data cycle, mixed per-channel fault models, starts around cycle
boundaries, and every tuned channel.
"""

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.bdisk.multichannel import ChannelSet
from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from tests.oracles import rtdb_reference as reference
from repro.rtdb.updates import (
    QuorumRead,
    UpdatingServer,
    retrieve_versioned_quorum,
)
from tests.oracles import sim_reference
from repro.sim.client import best_channel
from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    NoFaults,
)

TARGET = "f0"


@st.composite
def channel_programs(draw, carries, max_length=8, max_blocks=4):
    """One random small program; the target file, when ``carries``,
    owns slot 0."""
    names = ["f1", "f2"] + ([TARGET] if carries else [])
    length = draw(st.integers(len(names), max_length))
    cycle = [draw(st.sampled_from(names + [IDLE])) for _ in range(length)]
    for index, name in enumerate(reversed(names)):
        cycle[index] = name
    block_counts = {name: draw(st.integers(1, max_blocks)) for name in names}
    return BroadcastProgram(Schedule(cycle), block_counts)


@st.composite
def worlds(draw):
    """A channel set whose target is carried by >= 1 channel, plus a
    quorum the carriers can satisfy."""
    count = draw(st.integers(1, 3))
    carries = [draw(st.booleans()) for _ in range(count)]
    carries[draw(st.integers(0, count - 1))] = True
    programs = [draw(channel_programs(carry)) for carry in carries]
    assignment = {
        name: tuple(
            channel
            for channel, program in enumerate(programs)
            if name in program.files
        )
        for name in ("f0", "f1", "f2")
    }
    assignment = {name: ids for name, ids in assignment.items() if ids}
    carriers = len(assignment[TARGET])
    return ChannelSet(
        programs=tuple(programs),
        assignment=assignment,
        tuning_cost=draw(st.integers(0, 3)),
        quorum=draw(st.integers(1, carriers)),
    )


@st.composite
def fault_factories(draw):
    """A zero-argument factory for one channel's fault model (fresh per
    run, so both walkers see an unused instance)."""
    kind = draw(
        st.sampled_from(["clean", "none", "bernoulli", "burst", "adversarial"])
    )
    seed = draw(st.integers(0, 2**16))
    if kind == "clean":
        return lambda: None
    if kind == "none":
        return NoFaults
    if kind == "bernoulli":
        p = draw(st.floats(0.0, 0.6))
        return lambda: BernoulliFaults(p, seed=seed)
    if kind == "burst":
        p_enter = draw(st.floats(0.0, 0.4))
        p_exit = draw(st.floats(0.2, 1.0))
        return lambda: BurstFaults(p_enter, p_exit, seed=seed)
    lost = draw(st.sets(st.integers(0, 400), max_size=40))
    return lambda: AdversarialFaults(lost)


def boundary_start(draw, channels):
    """A start within three slots of some channel's cycle boundary."""
    cycle = draw(
        st.sampled_from([p.data_cycle_length for p in channels.programs])
    )
    return max(0, draw(st.integers(0, 2)) * cycle + draw(st.integers(-3, 3)))


def reference_choice(channels, file, m_needed, start, tuned, among,
                     max_slots):
    """The choice rule over slot-walking probes (the executable spec)."""
    best = chosen = None
    for candidate in among:
        listen = start + (channels.tuning_cost if candidate != tuned else 0)
        program = channels.programs[candidate]
        horizon = (
            max_slots
            if max_slots is not None
            else (m_needed + 2) * program.data_cycle_length
        )
        probe = sim_reference.retrieve(
            program, file, m_needed, start=listen, max_slots=horizon
        )
        busy = probe.finish_slot if probe.completed else listen + horizon - 1
        key = (0 if probe.completed else 1, busy, candidate)
        if best is None or key < best:
            best, chosen = key, (candidate, listen, horizon, probe)
    return chosen


def as_fields(read: QuorumRead) -> dict:
    return {field.name: getattr(read, field.name) for field in fields(read)}


class TestQuorumDifferential:
    @given(world=worlds(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_field_matches_the_slot_walker(self, world, data):
        channels = world
        cycles = [p.data_cycle_length for p in channels.programs]
        longer = data.draw(st.booleans())
        period = (
            data.draw(st.integers(max(cycles) + 1, 4 * max(cycles)))
            if longer
            else data.draw(st.integers(1, max(1, min(cycles) - 1)))
        )
        server = UpdatingServer({"f0": period, "f1": period, "f2": period})
        blocks = max(
            p.block_count(TARGET)
            for p in channels.programs
            if TARGET in p.files
        )
        m_needed = data.draw(st.integers(1, blocks + 1))
        factories = [data.draw(fault_factories()) for _ in cycles]
        max_slots = data.draw(
            st.one_of(st.none(), st.integers(1, 3 * max(cycles)))
        )
        start = boundary_start(data.draw, channels)
        for tuned in range(channels.count):
            fast = retrieve_versioned_quorum(
                channels, server, TARGET, m_needed, start=start,
                tuned=tuned, faults=[make() for make in factories],
                max_slots=max_slots,
            )
            slow = reference.retrieve_versioned_quorum(
                channels, server, TARGET, m_needed, start=start,
                tuned=tuned, faults=[make() for make in factories],
                max_slots=max_slots,
            )
            assert as_fields(fast) == as_fields(slow), tuned


class TestChoiceDifferential:
    @given(world=worlds(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_choice_and_probe_match_slot_walking_probes(self, world, data):
        channels = world
        carriers = channels.channels_for(TARGET)
        among = data.draw(
            st.lists(
                st.sampled_from(carriers), min_size=1, unique=True
            ).map(sorted)
        )
        blocks = max(
            channels.programs[c].block_count(TARGET) for c in carriers
        )
        m_needed = data.draw(st.integers(0, blocks + 1))
        start = boundary_start(data.draw, channels)
        for tuned in range(channels.count):
            horizons = [None]
            _, listen, _, probe = reference_choice(
                channels, TARGET, m_needed, start, tuned, among, None
            )
            if probe.completed:
                # Horizons ending one short of, at, and past the finish.
                heard = probe.finish_slot - listen + 1
                horizons += [heard - 1, heard, heard + 1]
            for max_slots in horizons:
                channel, listen, horizon, probe = reference_choice(
                    channels, TARGET, m_needed, start, tuned, among,
                    max_slots,
                )
                assert best_channel(
                    channels, TARGET, m_needed, start=start, tuned=tuned,
                    among=among, max_slots=max_slots,
                ) == (channel, listen, horizon, probe.finish_slot), (
                    tuned, max_slots,
                )
