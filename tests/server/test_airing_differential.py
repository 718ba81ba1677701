"""Differential tests: spliced-timeline walkers vs a slot-by-slot oracle.

:meth:`AirSchedule.retrieve` and :meth:`AirSchedule.retrieve_versioned`
hand their segments to the one scalar walker, which pulls each
segment's services from :func:`repro.sim.client.fault_batches` at that
segment's shift.  The oracle here walks every absolute slot of
the horizon instead: it reads what airs from :meth:`AirSchedule.content`
and :meth:`AirSchedule.segment_at`, asks the fault model one slot at a
time, and applies the cross-segment rules as the module documents them
- a re-dispersal (a different ``m``) is judged at the first *heard*
service of each later segment against the ``m`` of the last segment
that had one; version boundaries fall at absolute multiples of the
period in force.  Every :class:`SplicedRetrieval` field must agree on
random timelines of one to three segments: splices on outgoing
data-cycle boundaries with random phase offsets, the target absent from
some segments, ``m`` and update periods changing across splices,
none/Bernoulli/Burst/Adversarial faults (including whole segments
blacked out), and starts and horizons that cross splices.  A timeline
of one segment must also equal the static walkers,
:func:`~repro.sim.client.retrieve` and
:func:`~repro.rtdb.updates.retrieve_versioned`, and a timeline grown one
:meth:`AirSchedule.spliced` at a time must equal the timeline of all
its segments.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.errors import SimulationError
from repro.rtdb.updates import UpdatingServer, retrieve_versioned
from repro.server.airing import AirSchedule, Segment, SplicedRetrieval
from repro.sim.client import retrieve
from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    NoFaults,
)

TARGET = "f0"


@st.composite
def programs(draw, carries, max_length=8, max_blocks=4):
    """A random small program; the target, when ``carries``, is aired."""
    names = ["f1", "f2"] + ([TARGET] if carries else [])
    length = draw(st.integers(len(names), max_length))
    cycle = [draw(st.sampled_from(names + [IDLE])) for _ in range(length)]
    for index, name in enumerate(names):
        cycle[index] = name
    block_counts = {name: draw(st.integers(1, max_blocks)) for name in names}
    return BroadcastProgram(Schedule(cycle), block_counts)


@st.composite
def timelines(draw, versioned):
    """One to three segments spliced on outgoing data-cycle boundaries.

    Each segment declares the target's IDA level ``m`` or leaves the
    walker to fall back to the aired block count; versioned timelines
    give every segment its own update periods.
    """
    count = draw(st.integers(1, 3))
    start = draw(st.integers(0, 4))
    segments = []
    for _ in range(count):
        carries = draw(st.integers(0, 3)) > 0  # mostly aired
        program = draw(programs(carries=carries))
        dispersal = None
        if TARGET in program.files and draw(st.booleans()):
            dispersal = {
                TARGET: draw(st.integers(1, program.block_count(TARGET)))
            }
        periods = None
        if versioned:
            cycle = program.data_cycle_length
            periods = {
                name: draw(st.integers(1, 3 * cycle))
                for name in (TARGET, "f1", "f2")
            }
        segments.append(
            Segment(
                start=start,
                program=program,
                update_periods=periods,
                dispersal=dispersal,
                phase_offset=draw(
                    st.integers(0, program.data_cycle_length - 1)
                ),
            )
        )
        start += draw(st.integers(1, 2)) * program.data_cycle_length
    return AirSchedule(segments)


@st.composite
def fault_factories(draw, schedule):
    """A zero-argument factory for one fault model (fresh per walk).

    ``blackout`` loses every slot of some segments' tenures, so that
    segments whose every service is lost come up often.
    """
    kind = draw(
        st.sampled_from([
            "clean", "none", "bernoulli", "burst", "adversarial",
            "blackout",
        ])
    )
    seed = draw(st.integers(0, 2**16))
    if kind == "blackout":
        segments = schedule.segments
        last = segments[-1]
        ends = [s.start for s in segments[1:]] + [
            last.start + 2 * last.program.data_cycle_length
        ]
        dark = set()
        for segment, end in zip(segments, ends):
            if draw(st.booleans()):
                dark.update(range(segment.start, end))
        return lambda: AdversarialFaults(dark)
    if kind == "clean":
        return lambda: None
    if kind == "none":
        return NoFaults
    if kind == "bernoulli":
        p = draw(st.floats(0.0, 0.7))
        return lambda: BernoulliFaults(p, seed=seed)
    if kind == "burst":
        p_enter = draw(st.floats(0.0, 0.4))
        p_exit = draw(st.floats(0.2, 1.0))
        return lambda: BurstFaults(p_enter, p_exit, seed=seed)
    lost = draw(st.sets(st.integers(0, 200), max_size=40))
    return lambda: AdversarialFaults(lost)


def oracle(schedule, m_needed, start, max_slots, faults, versioned):
    """The spliced walk, one absolute slot at a time."""
    segments = schedule.segments
    first = schedule.epoch_of(start)
    home = next(
        (s for s in segments[first:] if TARGET in s.program.files), None
    )
    if home is None:
        return None
    horizon = max_slots
    if horizon is None:
        horizon = (m_needed + 2) * home.program.data_cycle_length
        if versioned:
            horizon += min(home.period(TARGET), horizon)
    faults = faults if faults is not None else NoFaults()
    held = set()
    last_m = None
    held_write = None
    discards = 0
    for t in range(start, start + horizon):
        content = schedule.content(t)
        if content is None or content.file != TARGET:
            continue
        if faults.is_lost(t):
            continue
        segment = schedule.segment_at(t)
        m_here = segment.dispersal_of(TARGET)
        if m_here is None:
            m_here = segment.program.block_count(TARGET)
        if last_m is not None and m_here != last_m:
            discards += len(held)
            held = set()
            held_write = None
        last_m = m_here
        if versioned:
            period = segment.period(TARGET)
            write = (t // period) * period
            if write != held_write:
                discards += len(held)
                held = set()
                held_write = write
        held.add(content.block_index)
        if len(held) >= m_needed:
            return SplicedRetrieval(
                file=TARGET,
                completed=True,
                finish_slot=t,
                latency=t - start + 1,
                segments_crossed=schedule.epoch_of(t) - first,
                age_at_completion=t - held_write if versioned else None,
                torn_discards=discards,
            )
    last = start + horizon - 1
    return SplicedRetrieval(
        file=TARGET,
        completed=False,
        finish_slot=last,
        latency=None,
        segments_crossed=schedule.epoch_of(last) - first,
        torn_discards=discards,
    )


def as_fields(result):
    return {f.name: getattr(result, f.name) for f in fields(result)}


def check(schedule, data, versioned):
    make_faults = data.draw(fault_factories(schedule), label="faults")
    first = schedule.segments[0]
    last = schedule.on_air
    span = last.start + 2 * last.program.data_cycle_length
    starts = st.integers(first.start, span)
    if schedule.splice_slots:
        # Often just before a splice, so walks cross it mid-collection.
        starts = st.one_of(
            starts,
            st.sampled_from(schedule.splice_slots).flatmap(
                lambda splice: st.integers(
                    max(first.start, splice - 6), splice
                )
            ),
        )
    start = data.draw(starts, label="start")
    blocks = max(
        (s.program.block_count(TARGET) for s in schedule.segments
         if TARGET in s.program.files),
        default=1,
    )
    m_needed = data.draw(st.integers(0, blocks + 1), label="m_needed")
    horizons = st.one_of(st.none(), st.integers(1, span + 12))
    later = [splice for splice in schedule.splice_slots if splice > start]
    if later:
        # Often ending just past a splice, before the incoming segment
        # has aired (or delivered) much of the file.
        horizons = st.one_of(
            horizons,
            st.sampled_from(later).flatmap(
                lambda splice: st.integers(
                    splice - start, splice - start + 6
                )
            ),
        )
    max_slots = data.draw(horizons, label="max_slots")
    expected = oracle(
        schedule, m_needed, start, max_slots, make_faults(), versioned
    )
    walk = (
        schedule.retrieve_versioned if versioned else schedule.retrieve
    )
    if expected is None:
        with pytest.raises(SimulationError, match="not broadcast"):
            walk(TARGET, m_needed, start=start, faults=make_faults(),
                 max_slots=max_slots)
        return
    result = walk(
        TARGET, m_needed, start=start, faults=make_faults(),
        max_slots=max_slots,
    )
    assert as_fields(result) == as_fields(expected)


class TestSplicedWalkDifferential:
    @given(schedule=timelines(versioned=False), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_retrieve_matches_the_slot_oracle(self, schedule, data):
        check(schedule, data, versioned=False)

    @given(schedule=timelines(versioned=True), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_retrieve_versioned_matches_the_slot_oracle(
        self, schedule, data
    ):
        check(schedule, data, versioned=True)


class TestRedispersalJudgedAtFirstHeardService:
    """A segment whose every service is lost changes nothing: the ``m``
    change is judged against the last segment that had a heard
    service, not at segment entry."""

    def test_fully_lost_segment_does_not_tear(self):
        # m: 2 -> 3 -> 2.  The middle segment's services are all lost,
        # so the held block from the first segment survives into the
        # third, whose m matches.
        a = BroadcastProgram(Schedule([TARGET, IDLE]), {TARGET: 2})
        cycle = a.data_cycle_length
        schedule = AirSchedule([
            Segment(0, a, dispersal={TARGET: 2}),
            Segment(cycle, a, dispersal={TARGET: 3}),
            Segment(2 * cycle, a, dispersal={TARGET: 2}),
        ])
        middle = set(range(cycle, 2 * cycle))
        lost = AdversarialFaults(middle | {2})
        result = schedule.retrieve(
            TARGET, 2, start=0, faults=lost, max_slots=3 * cycle
        )
        expected = oracle(schedule, 2, 0, 3 * cycle, lost, False)
        assert as_fields(result) == as_fields(expected)
        assert result.completed and result.torn_discards == 0
        assert result.segments_crossed == 2


@st.composite
def static_faults(draw):
    """A zero-argument factory: none, Bernoulli, burst or adversarial."""
    kind = draw(st.sampled_from(["none", "bernoulli", "burst", "adversarial"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "none":
        return lambda: None
    if kind == "bernoulli":
        p = draw(st.floats(0.0, 0.7))
        return lambda: BernoulliFaults(p, seed=seed)
    if kind == "burst":
        p_enter = draw(st.floats(0.0, 0.4))
        p_exit = draw(st.floats(0.2, 1.0))
        return lambda: BurstFaults(p_enter, p_exit, seed=seed)
    lost = draw(st.sets(st.integers(0, 200), max_size=40))
    return lambda: AdversarialFaults(lost)


def static_walk(program, data):
    """A start, ``m`` and horizon for a walk of the target on one
    program."""
    cycle = program.data_cycle_length
    start = data.draw(st.integers(0, 3 * cycle), label="start")
    m_needed = data.draw(
        st.integers(1, program.block_count(TARGET) + 1), label="m_needed"
    )
    max_slots = data.draw(
        st.one_of(st.none(), st.integers(1, 4 * cycle)), label="max_slots"
    )
    return start, m_needed, max_slots


class TestOneSegmentIsTheStaticProgram:
    """A timeline of one segment at slot 0 is the static program: its
    walks equal :func:`repro.sim.client.retrieve` and
    :func:`repro.rtdb.updates.retrieve_versioned`."""

    @given(
        program=programs(carries=True),
        faults=static_faults(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_retrieve(self, program, faults, data):
        start, m_needed, max_slots = static_walk(program, data)
        spliced = AirSchedule([Segment(0, program)]).retrieve(
            TARGET, m_needed, start=start, faults=faults(),
            max_slots=max_slots,
        )
        static = retrieve(
            program, TARGET, m_needed, start=start, faults=faults(),
            max_slots=max_slots,
        )
        assert spliced.completed == static.completed
        assert spliced.latency == static.latency
        if static.completed:
            assert spliced.finish_slot == static.finish_slot

    @given(
        program=programs(carries=True),
        faults=static_faults(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_retrieve_versioned(self, program, faults, data):
        start, m_needed, max_slots = static_walk(program, data)
        cycle = program.data_cycle_length
        periods = {
            name: data.draw(st.integers(1, 3 * cycle), label=name)
            for name in program.files
        }
        timeline = AirSchedule([
            Segment(0, program, update_periods=periods)
        ])
        spliced = timeline.retrieve_versioned(
            TARGET, m_needed, start=start, faults=faults(),
            max_slots=max_slots,
        )
        static = retrieve_versioned(
            program, UpdatingServer(periods), TARGET, m_needed,
            start=start, faults=faults(), max_slots=max_slots,
        )
        assert spliced.completed == static.completed
        assert spliced.latency == static.latency
        assert spliced.age_at_completion == static.age_at_completion
        assert spliced.torn_discards == static.torn_discards


class TestSplicedChainIsTheWholeTimeline:
    """A timeline grown one :meth:`AirSchedule.spliced` at a time is
    the timeline of all its segments: the same segments, walker rows
    and walks, and an invalid splice fails with the same text."""

    @given(schedule=timelines(versioned=True), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_walks_agree(self, schedule, data):
        segments = schedule.segments
        chain = AirSchedule(segments[:1])
        for segment in segments[1:]:
            chain = chain.spliced(segment)
        assert chain.segments == segments
        assert chain.splice_slots == schedule.splice_slots
        assert chain._rows == schedule._rows
        make_faults = data.draw(fault_factories(schedule), label="faults")
        last = schedule.on_air
        span = last.start + 2 * last.program.data_cycle_length
        starts = data.draw(
            st.lists(
                st.integers(segments[0].start, span), min_size=1,
                max_size=6,
            ),
            label="starts",
        )
        m_needed = data.draw(st.integers(1, 4), label="m_needed")
        max_slots = data.draw(
            st.one_of(st.none(), st.integers(1, span + 12)),
            label="max_slots",
        )
        for start in starts:
            for walk in ("retrieve", "retrieve_versioned"):
                outcomes = []
                for timeline in (chain, schedule):
                    try:
                        outcomes.append(as_fields(getattr(timeline, walk)(
                            TARGET, m_needed, start=start,
                            faults=make_faults(), max_slots=max_slots,
                        )))
                    except SimulationError as error:
                        outcomes.append(str(error))
                assert outcomes[0] == outcomes[1]

    @given(schedule=timelines(versioned=False), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_invalid_splice_fails_alike(self, schedule, data):
        last = schedule.on_air
        cycle = last.program.data_cycle_length
        start = data.draw(
            st.integers(0, last.start + 3 * cycle).filter(
                lambda slot: slot <= last.start
                or (slot - last.start) % cycle
            ),
            label="start",
        )
        bad = Segment(start, last.program)
        with pytest.raises(SimulationError) as whole:
            AirSchedule(schedule.segments + (bad,))
        with pytest.raises(SimulationError) as chain:
            schedule.spliced(bad)
        assert str(chain.value) == str(whole.value)
