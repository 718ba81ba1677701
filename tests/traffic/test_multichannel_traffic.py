"""Traffic over a channel set: engine parity, degeneracy, validation."""

import json

import pytest

from repro.errors import SpecificationError
from repro.bdisk.builder import design_program
from repro.bdisk.file import FileSpec
from repro.bdisk.multichannel import ChannelSet, design_multichannel_program
from repro.api.scenario import ChannelSpec, FaultSpec
from repro.rtdb import TemporalItemSpec, TemporalSpec
from repro.sim.faults import BernoulliFaults
from repro.traffic import TrafficSpec, simulate_traffic

pytest.importorskip("numpy")

CATALOGUE = ("a", "b", "c", "d")
SIZES = {"a": 2, "b": 3, "c": 2, "d": 4}
DEADLINES = {name: 10_000 for name in CATALOGUE}


def files():
    return [
        FileSpec("a", 2, 10),
        FileSpec("b", 3, 15),
        FileSpec("c", 2, 20),
        FileSpec("d", 4, 30),
    ]


def channel_set(count, *, assignment="striped", tuning_cost=0, quorum=1):
    return design_multichannel_program(
        files(),
        ChannelSpec(
            count=count,
            assignment=assignment,
            tuning_cost=tuning_cost,
            quorum=quorum,
        ),
    ).channel_set


def population(**overrides):
    payload = dict(
        clients=40,
        duration=300,
        arrival="poisson",
        popularity="zipf",
        requests_per_client=2,
        think_time=3,
        seed=23,
    )
    payload.update(overrides)
    return TrafficSpec(**payload)


def metrics_key(metrics):
    """Every merge-relevant dimension, as one comparable tuple."""
    return (
        metrics.requests,
        metrics.completions,
        metrics.aborts,
        metrics.deadline_misses,
        metrics.summary(),
        dict(metrics.requests_by_file),
        metrics.channel_switches,
        dict(metrics.quorum_reads),
        metrics.item_reads,
        metrics.stale_reads,
        metrics.torn_discards,
        tuple(
            metrics.quantile(q) for q in (0.5, 0.95, 0.99)
        ) if metrics.completions else None,
    )


def run(channels, *, faults=None, engine="object", max_workers=None,
        temporal=None, spec=None):
    return simulate_traffic(
        None,
        CATALOGUE,
        spec or population(),
        file_sizes=SIZES,
        deadlines=DEADLINES,
        faults=faults,
        temporal=temporal,
        channels=channels,
        engine=engine,
        max_workers=max_workers,
        trace=True,
    )


class TestEngineParity:
    """Object, SoA, serial, and pooled runs are all bit-identical."""

    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["faultfree", "bernoulli"])
    def test_all_paths_agree(self, faulty):
        channels = channel_set(2, tuning_cost=2)
        faults = (
            FaultSpec(kind="bernoulli", probability=0.1, seed=4)
            if faulty
            else None
        )
        baseline = run(channels, faults=faults, engine="object")
        assert baseline.channels
        others = [
            run(channels, faults=faults, engine="soa"),
            run(channels, faults=faults, engine="object", max_workers=3),
            run(channels, faults=faults, engine="soa", max_workers=3),
        ]
        for other in others:
            assert metrics_key(other.metrics) == metrics_key(
                baseline.metrics
            )
            assert other.trace == baseline.trace

    def test_switches_are_observed_with_tuning(self):
        channels = channel_set(2, tuning_cost=2)
        result = run(channels)
        assert result.metrics.channel_switches > 0
        assert "channels  :" in result.report()
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["channels"]["switches"] == (
            result.metrics.channel_switches
        )


class TestTemporalQuorum:
    def temporal(self):
        return TemporalSpec(
            slot_ms=10,
            items=(
                TemporalItemSpec("a", blocks=2, max_age_ms=4000),
                TemporalItemSpec("b", blocks=3, max_age_ms=4000),
                TemporalItemSpec("c", blocks=2, max_age_ms=4000),
                TemporalItemSpec("d", blocks=4, max_age_ms=4000),
            ),
            update_periods={"a": 400, "b": 400, "c": 400, "d": 400},
        )

    def test_quorum_parity_and_report(self):
        channels = channel_set(
            3, assignment="replicated", tuning_cost=1, quorum=2
        )
        spec = population(clients=25, requests_per_client=1)
        baseline = run(channels, temporal=self.temporal(), spec=spec)
        soa = run(
            channels, temporal=self.temporal(), spec=spec, engine="soa"
        )
        pooled = run(
            channels, temporal=self.temporal(), spec=spec,
            engine="soa", max_workers=3,
        )
        for other in (soa, pooled):
            assert metrics_key(other.metrics) == metrics_key(
                baseline.metrics
            )
            assert other.trace == baseline.trace
        assert baseline.metrics.quorum_total > 0
        payload = baseline.to_dict()["channels"]
        assert payload["quorum"]["reads"] == dict(
            sorted(baseline.metrics.quorum_reads.items())
        )


class TestSharedPrograms:
    """A replicated set airs one program object on every channel; its
    traffic is that of separately solved copies, bit for bit."""

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_shared_program_matches_separate_solves(self, engine):
        shared = channel_set(
            3, assignment="replicated", tuning_cost=1, quorum=2
        )
        assert shared.programs[0] is shared.programs[2]
        separate = ChannelSet(
            programs=tuple(design_program(files()).program for _ in range(3)),
            assignment=shared.assignment,
            tuning_cost=1,
            quorum=2,
        )
        faults = FaultSpec(kind="bernoulli", probability=0.1, seed=4)
        spec = population(clients=25, requests_per_client=1)
        for temporal in (None, TestTemporalQuorum().temporal()):
            mine, theirs = (
                run(
                    channels, faults=faults, engine=engine,
                    temporal=temporal, spec=spec,
                )
                for channels in (shared, separate)
            )
            assert metrics_key(mine.metrics) == metrics_key(theirs.metrics)
            assert mine.trace == theirs.trace


class TestDegeneracy:
    """k=1 multichannel traffic is bit-identical to the plain path."""

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_k1_matches_plain_simulate_traffic(self, engine):
        channels = channel_set(1)
        program = channels.programs[0]
        faults = FaultSpec(kind="bernoulli", probability=0.15, seed=7)
        plain = simulate_traffic(
            program,
            CATALOGUE,
            population(),
            file_sizes=SIZES,
            deadlines=DEADLINES,
            faults=faults,
            engine=engine,
            trace=True,
        )
        multi = run(channels, faults=faults, engine=engine)
        assert multi.metrics.channel_switches == 0
        assert metrics_key(multi.metrics)[:6] == metrics_key(
            plain.metrics
        )[:6]
        for mine, theirs in zip(multi.trace, plain.trace):
            assert mine.client == theirs.client
            assert mine.file == theirs.file
            assert mine.issued == theirs.issued
            assert mine.latency == theirs.latency
            assert mine.completed == theirs.completed


class TestValidation:
    def test_shared_fault_instance_rejected(self):
        with pytest.raises(SpecificationError, match="per-channel"):
            run(channel_set(2), faults=BernoulliFaults(0.1, seed=1))

    def test_per_channel_fault_length_checked(self):
        with pytest.raises(SpecificationError, match="one entry per"):
            run(channel_set(2), faults=[None])

    def test_cache_rejected_over_channels(self):
        with pytest.raises(SpecificationError, match="cache"):
            run(
                channel_set(2),
                spec=population(cache="lru"),
            )
