"""Property test: traffic sessions reproduce the seed retrieval semantics.

A *closed* population of non-thinking clients (one request each, no
cache) is just a batch of independent retrievals at known start slots -
exactly what :mod:`tests.oracles.sim_reference` computes by walking every slot.
The traffic path must agree latency-for-latency: the kernel, the
occurrence-walking retriever, and the fault-free phase memoization are
pure optimizations.
"""

import random

import pytest

from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from tests.oracles import sim_reference as reference
from repro.sim.faults import BernoulliFaults
from repro.traffic import TrafficSpec, simulate_traffic


def aida_world():
    program = build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])
    return program, ["A", "B"], {"A": 5, "B": 3}


def multidisk_world():
    files = [("hot", 2), ("warm", 3), ("cold", 4)]
    program = build_multidisk_program(
        config_from_demand(
            files, {"hot": 6.0, "warm": 2.0, "cold": 1.0}, levels=(4, 2, 1)
        )
    )
    return program, [name for name, _ in files], dict(files)


WORLDS = {"aida": aida_world, "multidisk": multidisk_world}


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize(
    "faults_seed", [None, 11], ids=["faultfree", "bernoulli"]
)
@pytest.mark.parametrize("arrival", ["deterministic", "poisson"])
def test_closed_population_matches_reference(world, faults_seed, arrival):
    program, catalogue, sizes = WORLDS[world]()
    deadlines = {name: 10_000 for name in catalogue}
    spec = TrafficSpec(
        clients=40,
        duration=300,
        arrival=arrival,
        popularity="zipf",
        zipf_skew=1.0,
        requests_per_client=1,  # closed: one request per session
        think_time=0,           # non-thinking
        seed=97,
    )
    faults = (
        None if faults_seed is None
        else BernoulliFaults(0.1, seed=faults_seed)
    )
    result = simulate_traffic(
        program,
        catalogue,
        spec,
        file_sizes=sizes,
        deadlines=deadlines,
        faults=faults,
        trace=True,
    )
    assert len(result.trace) == spec.clients
    for record in result.trace:
        # A fresh model reproduces the channel: decisions are a pure
        # function of (seed, slot).
        ref_faults = (
            None if faults_seed is None
            else BernoulliFaults(0.1, seed=faults_seed)
        )
        expected = reference.retrieve(
            program,
            record.file,
            sizes[record.file],
            start=record.issued,
            faults=ref_faults,
        )
        assert record.latency == expected.latency, record
        assert record.completed == expected.completed, record


def test_sessions_of_many_requests_match_reference_chain():
    """Multi-request sessions: each request is a reference retrieval
    starting one slot after the previous finish."""
    program, catalogue, sizes = aida_world()
    spec = TrafficSpec(
        clients=10,
        duration=100,
        arrival="deterministic",
        requests_per_client=4,
        think_time=0,
        seed=5,
    )
    result = simulate_traffic(
        program,
        catalogue,
        spec,
        file_sizes=sizes,
        deadlines={name: 10_000 for name in catalogue},
        trace=True,
    )
    by_client: dict[int, list] = {}
    for record in result.trace:
        by_client.setdefault(record.client, []).append(record)
    for records in by_client.values():
        records.sort(key=lambda r: r.issued)
        for earlier, later in zip(records, records[1:]):
            assert later.issued == earlier.issued + earlier.latency
        for record in records:
            expected = reference.retrieve(
                program, record.file, sizes[record.file],
                start=record.issued,
            )
            assert record.latency == expected.latency


def test_random_specs_reproduce_exactly():
    """Seeded determinism: the same spec always yields the same run."""
    program, catalogue, sizes = multidisk_world()
    meta = random.Random(1234)
    for _ in range(5):
        spec = TrafficSpec(
            clients=meta.randrange(5, 40),
            duration=meta.randrange(50, 500),
            arrival=meta.choice(["poisson", "deterministic", "bursty"]),
            popularity=meta.choice(["uniform", "zipf", "hotcold"]),
            requests_per_client=meta.randrange(1, 4),
            think_time=meta.randrange(0, 10),
            seed=meta.randrange(1000),
        )
        kwargs = dict(
            file_sizes=sizes,
            deadlines={name: 10_000 for name in catalogue},
            trace=True,
        )
        first = simulate_traffic(program, catalogue, spec, **kwargs)
        second = simulate_traffic(program, catalogue, spec, **kwargs)
        assert first.trace == second.trace
        assert first.summary == second.summary
