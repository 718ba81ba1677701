"""The vectorized engine is a bit-identical drop-in for the object one.

The object engine's client loop (``engine="object"``) stays the
executable specification; the SoA engine
(:mod:`repro.traffic.engine_soa`) must replay it decision for decision.
Every test here runs both engines on the same population and compares
the *full* observable surface - metrics counters, the exact latency
histogram, per-file tallies, and (where traced) every
:class:`RequestRecord` - for exact equality, never approximate.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.scenario import ChannelSpec
from repro.bdisk.file import FileSpec
from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.multichannel import ChannelSet, design_multichannel_program
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from repro.bdisk.program import BroadcastProgram
from repro.core.schedule import IDLE, Schedule
from repro.errors import ReproError, SpecificationError
from repro.rtdb import TemporalItemSpec, TemporalSpec, TransactionSpec
from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
)
from repro.traffic import TrafficMetrics, TrafficSpec, simulate_traffic
from repro.traffic.simulate import simulate_traffic_shard

pytest.importorskip("numpy")


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

FAULTS = {
    "faultfree": lambda: None,
    "bernoulli": lambda: BernoulliFaults(0.15, seed=11),
    "burst": lambda: BurstFaults(0.02, 0.3, seed=7),
    "adversarial": lambda: AdversarialFaults(range(10, 400, 7)),
}


def fingerprint(metrics: TrafficMetrics) -> dict:
    """Every observable the metrics object exposes, exactly."""
    return {
        "requests": metrics.requests,
        "completions": metrics.completions,
        "aborts": metrics.aborts,
        "deadline_misses": metrics.deadline_misses,
        "counts": metrics.counts,
        "requests_by_file": dict(metrics.requests_by_file),
        "hits_by_file": dict(metrics.hits_by_file),
        "cache_hits": metrics.cache_hits,
        "cache_misses": metrics.cache_misses,
        "cache_evictions": metrics.cache_evictions,
        "summary": metrics.summary(),
        "item_reads": metrics.item_reads,
        "stale_reads": metrics.stale_reads,
        "torn_discards": metrics.torn_discards,
        "age_sum": metrics.age_sum,
        "worst_age": metrics.worst_age,
        "ages": metrics.ages if metrics.item_reads else {},
    }


def run_both(program, catalogue, sizes, spec, *, faults=None, temporal=None):
    kwargs = dict(
        file_sizes=sizes,
        deadlines={name: 10_000 for name in catalogue},
        temporal=temporal,
        trace=True,
    )
    obj = simulate_traffic(
        program, catalogue, spec, faults=faults, engine="object", **kwargs
    )
    soa = simulate_traffic(
        program, catalogue, spec, faults=faults, engine="soa", **kwargs
    )
    assert fingerprint(soa.metrics) == fingerprint(obj.metrics)
    assert soa.trace == obj.trace
    return obj, soa


@pytest.mark.parametrize("cache", [None, "lru", "pix"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_soa_matches_object_across_faults_and_caches(world, fault, cache):
    program, catalogue, sizes = WORLDS[world]()
    spec = TrafficSpec(
        clients=30,
        duration=300,
        arrival="poisson",
        popularity="zipf",
        zipf_skew=1.2,
        requests_per_client=3,
        think_time=5,
        cache=cache,
        cache_capacity=2,
        seed=97,
    )
    run_both(program, catalogue, sizes, spec, faults=FAULTS[fault]())


@pytest.mark.parametrize(
    "popularity", ["uniform", "zipf", "hotcold"]
)
@pytest.mark.parametrize(
    "arrival", ["poisson", "deterministic", "bursty"]
)
def test_soa_matches_object_across_arrivals_and_popularity(
    arrival, popularity
):
    program, catalogue, sizes = multidisk_world()
    spec = TrafficSpec(
        clients=25,
        duration=400,
        arrival=arrival,
        popularity=popularity,
        hot_fraction=0.4,
        requests_per_client=2,
        think_time=2,
        seed=3,
    )
    run_both(
        program, catalogue, sizes, spec,
        faults=BernoulliFaults(0.1, seed=5),
    )


def test_soa_matches_object_on_randomized_specs():
    """The SoA mirror of ``test_random_specs_reproduce_exactly``."""
    program, catalogue, sizes = multidisk_world()
    meta = random.Random(4321)
    for _ in range(6):
        spec = TrafficSpec(
            clients=meta.randrange(5, 40),
            duration=meta.randrange(50, 500),
            arrival=meta.choice(["poisson", "deterministic", "bursty"]),
            popularity=meta.choice(["uniform", "zipf", "hotcold"]),
            requests_per_client=meta.randrange(1, 4),
            think_time=meta.randrange(0, 10),
            cache=meta.choice([None, "lru", "pix"]),
            cache_capacity=meta.randrange(1, 4),
            seed=meta.randrange(1000),
        )
        run_both(program, catalogue, sizes, spec)


class TestLookupForms:
    """The dense ``(file, phase)`` table and the per-file lookup agree.

    Programs whose ``files x data cycle`` exceeds ``DENSE_LUT_CAP``
    answer fault-free retrievals per file instead of from the dense
    table; a cap of 0 forces that form onto the small test worlds.
    """

    @pytest.mark.parametrize("case", ["lru", "pix", "pooled", "two-channel"])
    @pytest.mark.parametrize("lut", ["dense", "sparse"])
    def test_soa_matches_object(self, lut, case, monkeypatch):
        from repro.traffic import cohorts

        if lut == "sparse":
            monkeypatch.setattr(cohorts, "DENSE_LUT_CAP", 0)
        program, catalogue, sizes = multidisk_world()
        tables = cohorts.RetrievalTables.build(program, catalogue, sizes, None)
        assert (tables.dense is None) == (lut == "sparse")
        spec = TrafficSpec(
            clients=30, duration=300, arrival="poisson", popularity="zipf",
            zipf_skew=1.2, requests_per_client=3, think_time=5,
            cache=case if case in ("lru", "pix") else None,
            cache_capacity=2, seed=97,
        )
        kwargs = dict(
            file_sizes=sizes,
            deadlines={name: 10_000 for name in catalogue},
            trace=True,
        )
        if case == "pooled":
            # Pooled shards receive the tables pickled, form included.
            clone = pickle.loads(pickle.dumps(tables))
            assert (clone.dense is None) == (lut == "sparse")
            kwargs["max_workers"] = 2
        if case == "two-channel":
            program = None
            kwargs["channels"] = design_multichannel_program(
                [FileSpec(name, sizes[name], 4 * sizes[name])
                 for name in catalogue],
                ChannelSpec(count=2, assignment="striped", tuning_cost=2),
            ).channel_set
        obj = simulate_traffic(
            program, catalogue, spec, engine="object",
            **{**kwargs, "max_workers": None},
        )
        soa = simulate_traffic(
            program, catalogue, spec, engine="soa", **kwargs
        )
        assert fingerprint(soa.metrics) == fingerprint(obj.metrics)
        assert soa.trace == obj.trace


class TestTemporalEquivalence:
    """Read-transaction populations replay identically too."""

    def make_temporal(self, **overrides):
        payload = dict(
            slot_ms=10,
            items=(
                TemporalItemSpec("A", blocks=5, max_age_ms=1000),
                TemporalItemSpec("B", blocks=3, max_age_ms=500),
            ),
            update_periods={"A": 64, "B": 40},
        )
        payload.update(overrides)
        return TemporalSpec(**payload)

    @pytest.mark.parametrize("fault", ["faultfree", "bernoulli"])
    def test_default_single_item_mix(self, fault):
        program, catalogue, sizes = aida_world()
        spec = TrafficSpec(
            clients=20, duration=300, requests_per_client=3,
            think_time=4, seed=17,
        )
        run_both(
            program, catalogue, sizes, spec,
            faults=FAULTS[fault](),
            temporal=self.make_temporal(),
        )

    def test_explicit_transaction_mix(self):
        program, catalogue, sizes = aida_world()
        temporal = self.make_temporal(
            transactions=(
                TransactionSpec("pair", ("A", "B"), deadline_slots=90),
                TransactionSpec(
                    "solo", ("B",), deadline_slots=40, weight=2.0
                ),
            ),
        )
        spec = TrafficSpec(
            clients=20, duration=300, requests_per_client=2,
            think_time=3, seed=23,
        )
        run_both(
            program, catalogue, sizes, spec,
            faults=BernoulliFaults(0.1, seed=3),
            temporal=temporal,
        )


@st.composite
def temporal_worlds(draw):
    """A small temporal population on one program or a channel set.

    Channel sets have k in 1..3 channels, striped or replicated, any
    quorum r in 1..k and a tuning cost in 0..3.  Update periods go down
    to 3 slots, where reads tear often, and ``max_slots`` is often
    shorter than a data cycle: only short copy horizons tell apart the
    quorum's choice horizon (the plain default) from its copy horizon.
    """
    names = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    blocks = {name: draw(st.integers(1, 3)) for name in names}

    def make_program(carried):
        length = draw(st.integers(len(carried), 6))
        layout = [
            draw(st.sampled_from(carried + [IDLE])) for _ in range(length)
        ]
        layout[: len(carried)] = carried
        return BroadcastProgram(
            Schedule(layout),
            {
                name: draw(st.integers(blocks[name], blocks[name] + 2))
                for name in carried
            },
        )

    def model():
        kind = draw(st.sampled_from(["none", "bernoulli", "burst", "adv"]))
        seed = draw(st.integers(0, 999))
        if kind == "bernoulli":
            return BernoulliFaults(draw(st.floats(0.0, 0.5)), seed=seed)
        if kind == "burst":
            return BurstFaults(0.1, draw(st.floats(0.2, 1.0)), seed=seed)
        if kind == "adv":
            return AdversarialFaults(
                draw(st.sets(st.integers(0, 300), max_size=40))
            )
        return None

    k = draw(st.integers(0, 3))  # 0: one program, no channel set
    models = [model() for _ in range(max(1, k))]
    if k == 0:
        program, world = make_program(names), dict(faults=models[0])
    else:
        if draw(st.booleans()):  # striped
            k = min(k, len(names))
            assignment = {
                name: (index % k,) for index, name in enumerate(names)
            }
        else:
            assignment = {name: tuple(range(k)) for name in names}
        program, world = None, dict(
            channels=ChannelSet(
                [
                    make_program([n for n in names if c in assignment[n]])
                    for c in range(k)
                ],
                assignment,
                tuning_cost=draw(st.integers(0, 3)),
                quorum=draw(st.integers(1, k)),
            ),
            faults=models[:k],
        )
    transactions = ()
    if draw(st.booleans()):
        transactions = tuple(
            TransactionSpec(
                f"t{index}",
                draw(st.permutations(names))[: draw(
                    st.integers(1, len(names))
                )],
                deadline_slots=draw(st.integers(1, 120)),
                weight=draw(st.sampled_from([0.5, 1.0, 3.0])),
            )
            for index in range(draw(st.integers(1, 3)))
        )
    world["temporal"] = TemporalSpec(
        slot_ms=1,
        items=tuple(
            TemporalItemSpec(
                name, blocks=blocks[name],
                max_age_ms=draw(st.integers(4, 60)),
            )
            for name in names
        ),
        update_periods={name: draw(st.integers(3, 40)) for name in names},
        transactions=transactions,
    )
    spec = TrafficSpec(
        clients=draw(st.integers(1, 12)),
        duration=draw(st.integers(20, 300)),
        requests_per_client=draw(st.integers(1, 3)),
        think_time=draw(st.integers(0, 4)),
        max_slots=draw(st.one_of(st.none(), st.integers(2, 30))),
        seed=draw(st.integers(0, 999)),
    )
    return names, blocks, program, spec, world


def temporal_fingerprint(metrics: TrafficMetrics) -> dict:
    """The fingerprint plus the quorum and tuning dimensions."""
    return {
        **fingerprint(metrics),
        "quorum_reads": dict(metrics.quorum_reads),
        "quorum_counts": metrics.quorum_counts,
        "quorum_latency_sum": metrics.quorum_latency_sum,
        "worst_quorum_latency": metrics.worst_quorum_latency,
        "channel_switches": metrics.channel_switches,
    }


@given(world=temporal_worlds())
@settings(max_examples=150, deadline=None)
def test_temporal_soa_matches_object(world):
    """Batched versioned and quorum reads replay the object engine's
    scalar retrievers: every metric, every trace record, and the same
    error when a run cannot start."""
    names, blocks, program, spec, world = world
    outcomes = []
    for engine in ("object", "soa"):
        try:
            result = simulate_traffic(
                program, names, spec,
                file_sizes=blocks,
                deadlines={name: 40 for name in names},
                engine=engine, trace=True, **world,
            )
        except ReproError as error:
            # When several items are under-carried, which one a run
            # trips over first depends on event order: compare the
            # message up to the item it names.
            outcomes.append((type(error), str(error).split("'")[0]))
        else:
            outcomes.append(
                (temporal_fingerprint(result.metrics), result.trace)
            )
    assert outcomes[1] == outcomes[0]


class Delegating:
    """Forwards every decision unchanged, as a tracing proxy does."""

    def __init__(self, model):
        self.model = model

    def is_lost(self, t):
        return self.model.is_lost(t)

    def lost_in(self, slots):
        return self.model.lost_in(slots)


class ListAnswering:
    """A third-party model whose batches always answer with a list."""

    def __init__(self, model):
        self.model = model

    def is_lost(self, t):
        return self.model.is_lost(t)

    def lost_in(self, slots):
        return [self.model.is_lost(int(t)) for t in slots]


@pytest.mark.parametrize("wrapper", [Delegating, ListAnswering])
@pytest.mark.parametrize("fault", ["bernoulli", "burst", "adversarial"])
def test_resolver_accepts_wrapped_fault_models(fault, wrapper):
    # The resolver hands any model an int64 ndarray of slots; the
    # lost_in adapter turns whatever comes back into a bool array.
    program, catalogue, sizes = multidisk_world()
    spec = TrafficSpec(
        clients=30, duration=300, requests_per_client=3, think_time=5,
        cache="lru", cache_capacity=2, seed=61,
    )
    run_both(
        program, catalogue, sizes, spec, faults=wrapper(FAULTS[fault]())
    )


class TestCohortEdgeCases:
    """Batching boundaries where cohorts could drift."""

    def run_soa(self, spec):
        program, catalogue, sizes = aida_world()
        kwargs = dict(
            file_sizes=sizes,
            deadlines={name: 10_000 for name in catalogue},
            trace=True,
        )
        obj = simulate_traffic(
            program, catalogue, spec, engine="object", **kwargs
        )
        soa = simulate_traffic(
            program, catalogue, spec, engine="soa", **kwargs
        )
        assert fingerprint(soa.metrics) == fingerprint(obj.metrics)
        assert soa.trace == obj.trace

    def test_simultaneous_events_in_one_slot(self):
        # Deterministic arrivals over fewer slots than clients put four
        # arrivals in every slot; think 0 chains each follow-up back to
        # back.
        self.run_soa(
            TrafficSpec(
                clients=24, duration=6, arrival="deterministic",
                requests_per_client=3, think_time=0, seed=2,
            )
        )

    def test_zero_think_time_chains_back_to_back(self):
        self.run_soa(
            TrafficSpec(
                clients=12, duration=60, arrival="poisson",
                requests_per_client=5, think_time=0, seed=9,
            )
        )

    def test_cache_hit_completing_in_arrival_slot(self):
        # One-file catalogue: request 2 is always a cache hit, finishing
        # in the very slot it was issued (latency 1, zero wait).
        program = build_aida_flat_program([("A", 2, 4)])
        catalogue, sizes = ["A"], {"A": 2}
        spec = TrafficSpec(
            clients=10, duration=40, arrival="deterministic",
            requests_per_client=2, think_time=0,
            cache="lru", cache_capacity=1, seed=6,
        )
        kwargs = dict(
            file_sizes=sizes, deadlines={"A": 10_000}, trace=True
        )
        obj = simulate_traffic(
            program, catalogue, spec, engine="object", **kwargs
        )
        soa = simulate_traffic(
            program, catalogue, spec, engine="soa", **kwargs
        )
        assert fingerprint(soa.metrics) == fingerprint(obj.metrics)
        assert soa.trace == obj.trace
        assert soa.metrics.cache_hits == spec.clients  # every 2nd request

    def test_final_partial_cohort_at_duration(self):
        # clients not divisible by any power-of-two block size, arrivals
        # spread to the very last slot of the horizon.
        self.run_soa(
            TrafficSpec(
                clients=37, duration=37, arrival="deterministic",
                requests_per_client=2, think_time=1, seed=13,
            )
        )


class TestEngineSelection:
    def test_unknown_engine_is_rejected(self):
        program, catalogue, sizes = aida_world()
        with pytest.raises(SpecificationError):
            simulate_traffic(
                program, catalogue, TrafficSpec(clients=2, duration=10),
                file_sizes=sizes,
                deadlines={name: 100 for name in catalogue},
                engine="gpu",
            )

    def test_pooled_soa_equals_serial_object(self):
        program, catalogue, sizes = multidisk_world()
        spec = TrafficSpec(
            clients=40, duration=200, requests_per_client=2,
            think_time=3, seed=31,
        )
        kwargs = dict(
            file_sizes=sizes,
            deadlines={name: 10_000 for name in catalogue},
            faults=BernoulliFaults(0.1, seed=2),
        )
        serial = simulate_traffic(
            program, catalogue, spec, engine="object", **kwargs
        )
        pooled = simulate_traffic(
            program, catalogue, spec, engine="soa", max_workers=2,
            **kwargs,
        )
        assert fingerprint(pooled.metrics) == fingerprint(serial.metrics)

    def test_shard_api_merges_identically_across_engines(self):
        program, catalogue, sizes = aida_world()
        spec = TrafficSpec(
            clients=20, duration=150, requests_per_client=2,
            think_time=2, seed=41,
        )
        kwargs = dict(
            file_sizes=sizes,
            deadlines={name: 10_000 for name in catalogue},
            faults=BurstFaults(0.05, 0.4, seed=9),
        )
        merged = {}
        for engine in ("object", "soa"):
            parts = [
                simulate_traffic_shard(
                    program, catalogue, spec, lo=lo, hi=hi,
                    engine=engine, **kwargs,
                )
                for lo, hi in [(0, 7), (7, 13), (13, 20)]
            ]
            merged[engine] = TrafficMetrics.merged(parts)
        assert fingerprint(merged["soa"]) == fingerprint(merged["object"])


class TestFaultDrawShardInvariance:
    """Satellite: per-(seed, slot) draws survive any shard layout.

    Stochastic models decide each slot as a pure function of
    ``(seed, slot)``, so re-instantiating the model per shard - which
    pooled runs do - must reproduce the same channel no matter how the
    population is cut.  BurstFaults is the sharpest case: its Markov
    chain is sequential internally, yet queries stay order-independent.
    """

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_burst_faults_identical_across_shard_counts(self, engine):
        program, catalogue, sizes = multidisk_world()
        spec = TrafficSpec(
            clients=30, duration=250, requests_per_client=2,
            think_time=3, seed=19,
        )
        kwargs = dict(
            file_sizes=sizes,
            deadlines={name: 10_000 for name in catalogue},
        )

        def run(bounds):
            parts = [
                simulate_traffic_shard(
                    program, catalogue, spec, lo=lo, hi=hi, engine=engine,
                    faults=BurstFaults(0.03, 0.25, seed=77), **kwargs,
                )
                for lo, hi in bounds
            ]
            return fingerprint(TrafficMetrics.merged(parts))

        whole = run([(0, 30)])
        assert run([(0, 15), (15, 30)]) == whole
        assert run([(0, 10), (10, 20), (20, 30)]) == whole
        assert run([(0, 4), (4, 11), (11, 29), (29, 30)]) == whole
