"""The SoA fault resolver replays the scalar occurrence walk exactly.

:class:`repro.traffic.engine_soa._FaultResolver` resolves whole batches
of faulty retrievals with bitset arithmetic in geometric rounds; the
executable specification is :func:`repro.sim.client.retrieve` with
``need_distinct=True`` over the same listening horizon, and
:func:`repro.rtdb.updates.retrieve_versioned` for its versioned mode.
These properties compare them request by request on random small
programs - including files wider than one 64-bit bitset word,
``m_needed == 0`` files, horizons that expire mid-round and starts on
cycle and version boundaries - and pin that the round width never
changes an outcome.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.scenario import ChannelSpec, FaultSpec
from repro.bdisk.file import FileSpec
from repro.bdisk.multichannel import design_multichannel_program
from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.rtdb.updates import (
    UpdatingServer,
    retrieve_versioned,
    versioned_listen_horizon,
)
from repro.sim.client import retrieve
from repro.sim.faults import AdversarialFaults, BernoulliFaults, BurstFaults
from repro.traffic import TrafficSpec, simulate_traffic

np = pytest.importorskip("numpy")

from repro.traffic import engine_soa  # noqa: E402
from repro.traffic.cohorts import RetrievalTables  # noqa: E402


@st.composite
def worlds(draw):
    """A random program, per-file requirements and a horizon.

    With ``wide`` the first file rotates through more than 64 blocks,
    so the resolver's held-block bitsets span several words.
    """
    n_files = draw(st.integers(1, 3))
    names = [f"f{i}" for i in range(n_files)]
    length = draw(st.integers(n_files, 10))
    layout = [draw(st.sampled_from(names + [IDLE])) for _ in range(length)]
    for index, name in enumerate(names):
        layout[index % length] = name
    rotation = {name: draw(st.integers(1, 6)) for name in names}
    wide = draw(st.booleans())
    if wide:
        rotation[names[0]] = draw(st.integers(65, 130))
    sizes = {
        name: draw(st.integers(0, min(rotation[name] + 1, 70)))
        for name in names
    }
    program = BroadcastProgram(Schedule(layout), rotation)
    cycle = program.data_cycle_length
    # Wide files have long data cycles; an explicit horizon keeps the
    # scalar reference walk short.
    max_slots = draw(
        st.integers(1, 1500)
        if wide
        else st.one_of(st.none(), st.integers(1, 3 * cycle))
    )
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_files - 1),
                st.one_of(
                    st.integers(0, 3 * cycle),
                    st.integers(0, 3).map(lambda k: k * cycle),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return program, names, sizes, max_slots, requests


@st.composite
def fault_models(draw):
    """A factory for one lossy model of each kind."""
    kind = draw(st.sampled_from(["bernoulli", "burst", "adversarial"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "bernoulli":
        p = draw(st.floats(0.0, 1.0))
        return lambda: BernoulliFaults(p, seed=seed)
    if kind == "burst":
        p_enter = draw(st.floats(0.0, 0.5))
        p_exit = draw(st.floats(0.1, 1.0))
        return lambda: BurstFaults(p_enter, p_exit, seed=seed)
    slots = draw(st.sets(st.integers(0, 400), max_size=60))
    return lambda: AdversarialFaults(slots)


def scalar_outcome(program, file, m_needed, start, model, horizon):
    """``(latency, finish)`` of the scalar walk, resolver conventions."""
    result = retrieve(
        program, file, m_needed, start=start, faults=model,
        need_distinct=True, max_slots=horizon,
    )
    if result.completed:
        return result.latency, result.finish_slot
    return -1, start + horizon - 1


def resolve(world, model, first):
    program, names, sizes, max_slots, requests = world
    tables = RetrievalTables.build(program, names, sizes, max_slots)
    file_ids = np.asarray([fid for fid, _ in requests], dtype=np.int64)
    starts = np.asarray([start for _, start in requests], dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_soa, "_FAULT_FIRST", first)
        latency, finish = engine_soa._FaultResolver(tables, model).resolve(
            file_ids, starts
        )
    return tables, list(zip(latency.tolist(), finish.tolist()))


@pytest.mark.parametrize("first", [1, engine_soa._FAULT_FIRST, 64])
@given(world=worlds(), make_faults=fault_models())
@settings(max_examples=60, deadline=None)
def test_resolver_matches_scalar_retrieve(first, world, make_faults):
    program, names, sizes, _, requests = world
    tables, outcomes = resolve(world, make_faults(), first)
    model = make_faults()
    for (fid, start), outcome in zip(requests, outcomes):
        expected = scalar_outcome(
            program, names[fid], sizes[names[fid]], start, model,
            int(tables.horizons[fid]),
        )
        assert outcome == expected, (names[fid], start)


@st.composite
def versioned_worlds(draw):
    """A random world, an update period per file (down to one slot)
    and a few more requests starting exactly on a version boundary."""
    program, names, sizes, max_slots, requests = draw(worlds())
    cycle = program.data_cycle_length
    periods = {name: draw(st.integers(1, 2 * cycle)) for name in names}
    boundaries = draw(
        st.lists(
            st.tuples(st.integers(0, len(names) - 1), st.integers(0, 4)),
            max_size=4,
        )
    )
    requests = requests + [
        (fid, k * periods[names[fid]]) for fid, k in boundaries
    ]
    return program, names, sizes, max_slots, requests, periods


@pytest.mark.parametrize("first", [1, engine_soa._FAULT_FIRST, 64])
@given(
    world=versioned_worlds(),
    make_faults=st.one_of(st.just(lambda: None), fault_models()),
)
@settings(max_examples=60, deadline=None)
def test_versioned_resolver_matches_scalar_retrieve_versioned(
    first, world, make_faults
):
    program, names, sizes, max_slots, requests, periods = world
    tables = RetrievalTables.build(program, names, sizes, None)
    horizon = {
        name: versioned_listen_horizon(
            program, name, sizes[name], periods[name], max_slots=max_slots
        )
        for name in names
    }
    files = [names[fid] for fid, _ in requests]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_soa, "_FAULT_FIRST", first)
        outcomes = engine_soa._FaultResolver(
            tables, make_faults()
        ).resolve_versioned(
            np.asarray([fid for fid, _ in requests], dtype=np.int64),
            np.asarray([start for _, start in requests], dtype=np.int64),
            np.asarray([horizon[name] for name in files], dtype=np.int64),
            np.asarray([periods[name] for name in files], dtype=np.int64),
        )
    server = UpdatingServer(periods)
    model = make_faults()
    for (fid, start), latency, finish, version, torn in zip(
        requests, *(column.tolist() for column in outcomes)
    ):
        name = names[fid]
        result = retrieve_versioned(
            program, server, name, sizes[name], start=start, faults=model,
            max_slots=horizon[name],
        )
        expected = (
            (result.latency, result.finish_slot)
            if result.completed
            else (-1, start + horizon[name] - 1)
        )
        assert (latency, finish) == expected, (name, start)
        assert version == (
            -1 if result.version is None else result.version
        ), (name, start)
        assert torn == result.torn_discards, (name, start)
        if result.completed:
            age = finish - version * periods[name]
            assert age == result.age_at_completion, (name, start)


@given(world=worlds(), make_faults=fault_models())
@settings(max_examples=40, deadline=None)
def test_round_width_never_changes_an_outcome(world, make_faults):
    narrow = resolve(world, make_faults(), 1)[1]
    assert resolve(world, make_faults(), 64)[1] == narrow


def test_multiword_bitset_counts_blocks_past_64():
    # One file rotating through 100 blocks, one slot per period: block
    # k airs at slot k, so losing every even slot leaves the odd blocks.
    program = BroadcastProgram(Schedule(["w"]), {"w": 100})
    tables = RetrievalTables.build(program, ["w"], {"w": 40}, None)
    model = AdversarialFaults(range(0, 400, 2))
    for first in (1, 64):
        _, outcomes = resolve(
            (program, ["w"], {"w": 40}, None, [(0, 0), (0, 50)]), model,
            first,
        )
        # 40 odd blocks from slot 0 end at slot 79; from slot 50 the odd
        # blocks 51..99 (25) then 1..29 (15) end at slot 129.
        assert outcomes == [(80, 79), (80, 129)]
    assert tables.occ_blocks.max() >= 64


def test_zero_block_file_finishes_at_first_surviving_occurrence():
    program = BroadcastProgram(Schedule(["z", IDLE]), {"z": 3})
    model = AdversarialFaults([4, 6])
    _, outcomes = resolve(
        (program, ["z"], {"z": 0}, None, [(0, 4), (0, 3)]), model, 4
    )
    assert outcomes == [(5, 8), (6, 8)]


@pytest.mark.parametrize("mixed", [False, True], ids=["burst", "mixed"])
def test_multichannel_burst_shards_match_object_engine(mixed):
    """Faulty multichannel SoA shards resolve through the same resolver,
    grouped by chosen channel; a clean channel next to a faulty one
    keeps its table outcomes."""
    sizes = {"a": 2, "b": 3, "c": 2, "d": 4}
    files = [
        FileSpec("a", 2, 10), FileSpec("b", 3, 15),
        FileSpec("c", 2, 20), FileSpec("d", 4, 30),
    ]
    channels = design_multichannel_program(
        files, ChannelSpec(count=2, assignment="striped", tuning_cost=2)
    ).channel_set
    burst = FaultSpec(kind="burst", p_enter=0.05, p_exit=0.3, seed=8)
    faults = [None, burst] if mixed else burst
    spec = TrafficSpec(
        clients=60, duration=400, requests_per_client=3, think_time=2,
        seed=5,
    )
    results = [
        simulate_traffic(
            None, tuple(sizes), spec,
            file_sizes=sizes,
            deadlines={name: 60 for name in sizes},
            faults=faults, channels=channels, engine=engine, trace=True,
        )
        for engine in ("object", "soa")
    ]
    obj, soa = (result.metrics for result in results)
    assert soa.summary() == obj.summary()
    assert soa.counts == obj.counts
    assert soa.channel_switches == obj.channel_switches > 0
    assert (soa.aborts, soa.deadline_misses) == (
        obj.aborts, obj.deadline_misses
    )
    assert results[1].trace == results[0].trace
