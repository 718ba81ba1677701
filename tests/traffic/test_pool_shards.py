"""Pooled vectorized shards never build an occurrence index.

A non-temporal SoA shard retrieves from flat retrieval tables alone, so
:func:`simulate_traffic` builds them once in the parent and ships them
pickled with every shard.  The test counts :class:`ProgramIndex`
constructions across the parent and its forked workers through a
shared counter: the patched constructor is inherited by the fork.
"""

import multiprocessing

import pytest

from repro.api.scenario import ChannelSpec, FaultSpec
from repro.bdisk.file import FileSpec
from repro.bdisk.multichannel import design_multichannel_program
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from repro.bdisk.program_index import ProgramIndex
from repro.traffic import TrafficSpec, simulate_traffic

pytest.importorskip("numpy")

FILES = [("hot", 2), ("warm", 3), ("cold", 4)]
SIZES = dict(FILES)
CATALOGUE = [name for name, _ in FILES]
DEADLINES = {name: 10_000 for name in CATALOGUE}
FAULTS = {
    "clean": None,
    "burst": FaultSpec(kind="burst", p_enter=0.05, p_exit=0.3, seed=9),
}


def single_channel():
    program = build_multidisk_program(
        config_from_demand(
            FILES, {"hot": 6.0, "warm": 2.0, "cold": 1.0}, levels=(4, 2, 1)
        )
    )
    return {"program": program}


def two_channels():
    channels = design_multichannel_program(
        [FileSpec(name, blocks, 4 * blocks) for name, blocks in FILES],
        ChannelSpec(count=2, assignment="striped", tuning_cost=2),
    ).channel_set
    return {"program": None, "channels": channels}


def test_pooled_soa_workers_never_build_an_index(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the counting constructor reaches workers by fork")
    worlds = {"single": single_channel(), "two-channel": two_channels()}
    for world in worlds.values():
        programs = world.get("channels")
        for program in (
            programs.programs if programs else (world["program"],)
        ):
            program.index  # the parent's builds happen before counting
    counter = multiprocessing.get_context("fork").Value("i", 0)
    original = ProgramIndex.__init__

    def counted(self, *args, **kwargs):
        with counter.get_lock():
            counter.value += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ProgramIndex, "__init__", counted)
    spec = TrafficSpec(
        clients=40, duration=300, requests_per_client=2, think_time=3,
        seed=51,
    )

    def run(world, faults, engine):
        counter.value = 0
        result = simulate_traffic(
            world["program"], CATALOGUE, spec,
            file_sizes=SIZES, deadlines=DEADLINES, faults=faults,
            channels=world.get("channels"), engine=engine, max_workers=2,
        )
        assert result.requests == spec.total_requests
        return counter.value

    builds = {
        (name, channel): run(world, faults, "soa")
        for name, world in worlds.items()
        for channel, faults in FAULTS.items()
    }
    assert builds == dict.fromkeys(builds, 0)
    # The counter does reach the workers: the object engine ships the
    # program, and each shard's unpickled copy builds its own index.
    assert run(worlds["single"], None, "object") == 2
