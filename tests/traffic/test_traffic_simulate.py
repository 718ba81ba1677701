"""Tests for the top-level traffic simulation and its sharding."""

import pytest

from repro.errors import SimulationError, SpecificationError
from repro.bdisk.flat import build_aida_flat_program
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from repro.sim.faults import BernoulliFaults, BurstFaults
from repro.api.scenario import FaultSpec
from repro.traffic import TrafficSpec, simulate_traffic

FILES = [("hot", 2), ("warm", 3), ("cold", 5)]
SIZES = dict(FILES)
DEADLINES = {"hot": 60, "warm": 90, "cold": 150}
CATALOGUE = [name for name, _ in FILES]


def make_program():
    return build_multidisk_program(
        config_from_demand(
            FILES, {"hot": 8.0, "warm": 3.0, "cold": 1.0}, levels=(4, 2, 1)
        )
    )


def run(spec=None, **kwargs):
    program = kwargs.pop("program", None) or make_program()
    return simulate_traffic(
        program,
        CATALOGUE,
        spec if spec is not None else TrafficSpec(clients=200, duration=2000, seed=13),
        file_sizes=SIZES,
        deadlines=DEADLINES,
        **kwargs,
    )


class TestBasics:
    def test_every_request_accounted(self):
        spec = TrafficSpec(
            clients=100, duration=1000, requests_per_client=3, seed=1
        )
        result = run(spec)
        assert result.requests == spec.total_requests == 300
        assert result.completions + result.aborts == result.requests
        assert result.summary.count == 300

    def test_faultfree_channel_completes_everything(self):
        result = run()
        assert result.aborts == 0
        assert result.abort_rate == 0.0

    def test_trace_is_off_by_default_and_sorted_when_on(self):
        assert run().trace == ()
        traced = run(trace=True)
        assert len(traced.trace) == traced.requests
        keys = [(r.issued, r.client) for r in traced.trace]
        assert keys == sorted(keys)

    def test_report_and_dict(self):
        result = run(trace=True)
        report = result.report()
        assert "req/s sustained" in report and "latency" in report
        payload = result.to_dict()
        assert payload["requests"] == result.requests
        assert payload["latency"]["p99"] >= payload["latency"]["p50"]
        assert payload["spec"]["clients"] == 200
        import json

        json.dumps(payload)  # strictly JSON-able

    def test_arrival_kind_does_not_perturb_behaviour_streams(self):
        """Arrivals draw from a dedicated substream: swapping the
        arrival process changes *when* clients show up, never *what*
        they ask for."""
        traces = {}
        for arrival in ("poisson", "deterministic", "bursty"):
            spec = TrafficSpec(
                clients=50, duration=500, arrival=arrival,
                requests_per_client=2, think_time=4, seed=23,
            )
            result = run(spec, trace=True)
            by_client: dict[int, list[str]] = {}
            for record in sorted(result.trace, key=lambda r: r.issued):
                by_client.setdefault(record.client, []).append(record.file)
            traces[arrival] = by_client
        assert traces["poisson"] == traces["deterministic"] \
            == traces["bursty"]

    def test_popularity_orders_request_counts(self):
        result = run(
            TrafficSpec(
                clients=500, duration=2000, popularity="zipf",
                zipf_skew=1.5, seed=3,
            )
        )
        by_file = result.metrics.requests_by_file
        assert by_file["hot"] > by_file["warm"] > by_file["cold"]


class TestFaults:
    def test_bernoulli_stretches_the_tail(self):
        clean = run()
        faulty = run(faults=BernoulliFaults(0.2, seed=5))
        assert faulty.summary.mean > clean.summary.mean
        assert faulty.requests == clean.requests

    def test_fault_spec_accepted(self):
        direct = run(faults=BernoulliFaults(0.1, seed=2))
        declarative = run(
            faults=FaultSpec(kind="bernoulli", probability=0.1, seed=2)
        )
        assert direct.summary == declarative.summary

    def test_burst_faults_run(self):
        result = run(faults=BurstFaults(0.05, 0.3, seed=4))
        assert result.requests == 200

    def test_bogus_faults_rejected(self):
        with pytest.raises(SpecificationError):
            run(faults="lossy")


class TestSharding:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_is_bit_identical_to_serial(self, workers):
        spec = TrafficSpec(
            clients=120, duration=1500, requests_per_client=2,
            think_time=3, seed=21,
        )
        serial = run(spec, trace=True)
        parallel = run(spec, max_workers=workers, trace=True)
        assert parallel.workers == workers
        assert serial.summary == parallel.summary
        assert serial.metrics.counts == parallel.metrics.counts
        assert (serial.metrics.requests_by_file
                == parallel.metrics.requests_by_file)
        assert serial.trace == parallel.trace

    def test_parallel_with_faults_matches_serial(self):
        spec = TrafficSpec(clients=80, duration=800, seed=8)
        faults = FaultSpec(kind="bernoulli", probability=0.1, seed=6)
        serial = run(spec, faults=faults, trace=True)
        parallel = run(spec, faults=faults, max_workers=2, trace=True)
        assert serial.trace == parallel.trace
        assert serial.summary == parallel.summary

    def test_bad_workers_rejected(self):
        with pytest.raises(SpecificationError):
            run(max_workers=0)
        with pytest.raises(SpecificationError):
            run(max_workers=True)

    def test_shard_bounds_layout_and_validation(self):
        from repro.traffic import shard_bounds

        assert shard_bounds(10, 4) == [(0, 2), (2, 5), (5, 7), (7, 10)]
        assert shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]  # clamped
        for clients, shards in (
            (10.0, 4), (True, 1), (0, 2), ("10", 2),
            (10, 0), (10, True),
        ):
            with pytest.raises(SpecificationError):
                shard_bounds(clients, shards)


class TestValidation:
    def test_unknown_file_rejected(self):
        program = build_aida_flat_program([("A", 5, 10)])
        with pytest.raises(SimulationError):
            simulate_traffic(
                program,
                ["A", "ghost"],
                TrafficSpec(clients=2, duration=10),
                file_sizes={"A": 5, "ghost": 1},
                deadlines={"A": 50, "ghost": 50},
            )

    def test_missing_size_or_deadline_rejected(self):
        program = build_aida_flat_program([("A", 5, 10)])
        with pytest.raises(SimulationError):
            simulate_traffic(
                program, ["A"], TrafficSpec(clients=2, duration=10),
                file_sizes={}, deadlines={"A": 50},
            )
        with pytest.raises(SimulationError):
            simulate_traffic(
                program, ["A"], TrafficSpec(clients=2, duration=10),
                file_sizes={"A": 5}, deadlines={},
            )

    def test_empty_or_duplicate_catalogue_rejected(self):
        program = build_aida_flat_program([("A", 5, 10)])
        with pytest.raises(SpecificationError):
            simulate_traffic(
                program, [], TrafficSpec(),
                file_sizes={}, deadlines={},
            )
        with pytest.raises(SpecificationError):
            simulate_traffic(
                program, ["A", "A"], TrafficSpec(),
                file_sizes={"A": 5}, deadlines={"A": 50},
            )


class TestCachePopulations:
    @pytest.mark.parametrize("policy", ["lru", "pix"])
    def test_caching_sessions_hit_after_first_fetch(self, policy):
        spec = TrafficSpec(
            clients=60, duration=600, requests_per_client=6,
            cache=policy, cache_capacity=2, popularity="zipf",
            zipf_skew=1.2, seed=31,
        )
        result = run(spec)
        metrics = result.metrics
        assert metrics.cache_hits > 0
        assert metrics.cache_hits + metrics.cache_misses \
            == result.requests
        # Hits answer locally in zero slots, so the histogram has zeros.
        assert metrics.counts.get(0, 0) == metrics.cache_hits

    def test_max_slots_bounds_cache_misses_too(self):
        """Regression: the per-retrieval horizon override applies to the
        cache-miss path exactly as it does without a cache."""
        for cache in (None, "lru"):
            spec = TrafficSpec(
                clients=30, duration=300, max_slots=1, cache=cache,
                seed=19,
            )
            result = run(spec)
            # One listening slot cannot deliver multi-block files.
            assert result.aborts == result.requests, cache

    def test_cached_parallel_matches_serial(self):
        spec = TrafficSpec(
            clients=40, duration=400, requests_per_client=4,
            cache="lru", cache_capacity=2, seed=17,
        )
        serial = run(spec, trace=True)
        parallel = run(spec, max_workers=2, trace=True)
        assert serial.trace == parallel.trace
        assert serial.metrics.cache_hits == parallel.metrics.cache_hits
