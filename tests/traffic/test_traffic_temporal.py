"""Tests for the temporal traffic layer: metrics, client loop, simulator."""

import pytest

from repro.bdisk.flat import build_aida_flat_program
from repro.errors import SimulationError, SpecificationError
from repro.rtdb import (
    TemporalItemSpec,
    TemporalSpec,
    TransactionSpec,
    UpdatingServer,
    retrieve_versioned,
)
from repro.traffic import TrafficMetrics, TrafficSpec, simulate_traffic
from repro.traffic.simulate import simulate_traffic_shard


def make_program():
    return build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])


def make_temporal(**overrides):
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


class TestVersionedMetrics:
    def test_record_versioned_read(self):
        metrics = TrafficMetrics()
        metrics.record_versioned_read(12, True, 0)
        metrics.record_versioned_read(40, False, 3)
        metrics.record_versioned_read(None, False, 2)  # aborted read
        assert metrics.item_reads == 2
        assert metrics.stale_reads == 1
        assert metrics.torn_discards == 5
        assert metrics.age_sum == 52
        assert metrics.worst_age == 40
        assert metrics.consistency_rate == 0.5
        assert metrics.mean_age == 26.0
        assert metrics.ages == {12: 1, 40: 1}

    def test_consistency_rate_defaults_to_one(self):
        assert TrafficMetrics().consistency_rate == 1.0

    def test_age_quantile_exact(self):
        metrics = TrafficMetrics()
        for age in (1, 2, 3, 4, 100):
            metrics.record_versioned_read(age, True, 0)
        assert metrics.age_quantile(0.5) == 3
        assert metrics.age_quantile(0.99) == 100

    def test_merge_sums_the_staleness_dimension(self):
        parts = []
        for base in (0, 10):
            part = TrafficMetrics()
            part.record("t", 5, 10)
            part.record_versioned_read(base + 5, base == 0, base)
            parts.append(part)
        merged = TrafficMetrics.merged(parts)
        assert merged.item_reads == 2
        assert merged.stale_reads == 1
        assert merged.torn_discards == 10
        assert merged.age_sum == 20
        assert merged.worst_age == 15
        assert merged.ages == {5: 1, 15: 1}


class TestVersionedRetriever:
    """A one-client temporal population through the object engine: each
    single-item transaction is one ``retrieve_versioned`` call."""

    def run_one_client(self, temporal, *, requests, max_slots=None):
        return simulate_traffic(
            make_program(),
            ["A", "B"],
            TrafficSpec(
                clients=1, duration=1, requests_per_client=requests,
                seed=4, max_slots=max_slots,
            ),
            file_sizes={"A": 5, "B": 3},
            deadlines={"A": 100, "B": 50},
            temporal=temporal,
            engine="object",
            trace=True,
        )

    def test_matches_direct_retrieval(self):
        program = make_program()
        # Short periods: updates land mid-read, so some reads tear.
        periods = {"A": 30, "B": 13}
        server = UpdatingServer(periods)
        result = self.run_one_client(
            make_temporal(update_periods=periods), requests=8
        )
        assert len(result.trace) == 8
        # Think 0 chains the reads: each starts the slot after the last.
        start, age_sum, torn = 0, 0, 0
        for record in result.trace:
            direct = retrieve_versioned(
                program, server, record.file,
                {"A": 5, "B": 3}[record.file], start=start,
            )
            assert record.issued == start
            assert record.latency == direct.latency
            age_sum += direct.age_at_completion
            torn += direct.torn_discards
            start = direct.finish_slot + 1
        assert {record.file for record in result.trace} == {"A", "B"}
        assert result.metrics.age_sum == age_sum
        assert result.metrics.torn_discards == torn > 0

    def test_abort_reports_horizon_finish(self):
        # Period 2: every version dies before 3 B-blocks can air.
        temporal = make_temporal(update_periods={"A": 2, "B": 2})
        result = self.run_one_client(temporal, requests=4, max_slots=50)
        assert [record.latency for record in result.trace] == [None] * 4
        assert result.metrics.item_reads == 0
        assert result.metrics.torn_discards > 0
        # An abort holds the receiver for the whole 50-slot horizon.
        for earlier, later in zip(result.trace, result.trace[1:]):
            assert later.issued == earlier.issued + 50


class TestTemporalSimulation:
    def _run(self, spec=None, temporal=None, **kwargs):
        program = make_program()
        return simulate_traffic(
            program,
            ["A", "B"],
            spec
            or TrafficSpec(
                clients=50, duration=800, requests_per_client=2, seed=5
            ),
            file_sizes={"A": 5, "B": 3},
            deadlines={"A": 100, "B": 50},
            temporal=temporal or make_temporal(),
            **kwargs,
        )

    def test_single_item_mix_by_default(self):
        result = self._run()
        assert set(result.metrics.requests_by_file) <= {"A", "B"}
        assert result.metrics.item_reads > 0
        assert result.metrics.requests == 100

    def test_explicit_transaction_mix(self):
        temporal = make_temporal(
            transactions=(
                TransactionSpec("both", ["A", "B"], 200, weight=1.0),
            )
        )
        result = self._run(temporal=temporal)
        assert set(result.metrics.requests_by_file) == {"both"}
        # Two item reads per completed transaction.
        assert result.metrics.item_reads == 2 * result.metrics.completions

    def test_transaction_abort_stops_the_read_set(self):
        # B updates every 2 slots: unreadable; A is fine.  The "ba"
        # transaction aborts on its first item and never touches A.
        temporal = make_temporal(
            update_periods={"A": 64, "B": 2},
            transactions=(TransactionSpec("ba", ["B", "A"], 400),),
        )
        spec = TrafficSpec(
            clients=10, duration=100, requests_per_client=1, seed=1,
            max_slots=200,
        )
        result = self._run(spec=spec, temporal=temporal)
        assert result.metrics.aborts == result.metrics.requests
        assert result.metrics.item_reads == 0  # no read ever completed
        assert result.metrics.torn_discards > 0
        # An all-abort temporal run still reports its freshness block -
        # torn discards are the diagnostic - with consistency null
        # ("undefined"), never a reassuring 1.0.
        payload = result.to_dict()["temporal"]
        assert payload is not None
        assert payload["consistency_rate"] is None
        assert payload["age"] is None
        assert payload["torn_discards"] == result.metrics.torn_discards
        assert "no read ever completed" in result.report()

    def test_catalogue_must_be_temporal_items(self):
        program = make_program()
        with pytest.raises(SimulationError):
            simulate_traffic(
                program,
                ["A", "B"],
                TrafficSpec(clients=2, duration=10),
                file_sizes={"A": 5, "B": 3},
                deadlines={"A": 100, "B": 50},
                temporal=make_temporal(
                    items=(
                        TemporalItemSpec("A", blocks=5, max_age_ms=1000),
                    ),
                    update_periods={"A": 64},
                ),
            )

    def test_cache_rejected(self):
        with pytest.raises(SpecificationError):
            self._run(
                spec=TrafficSpec(
                    clients=5, duration=50, cache="lru"
                )
            )

    def test_sharded_run_is_bit_identical(self):
        serial = self._run()
        sharded = self._run(max_workers=4)
        assert serial.metrics.counts == sharded.metrics.counts
        assert serial.metrics.ages == sharded.metrics.ages
        assert serial.metrics.item_reads == sharded.metrics.item_reads
        assert serial.metrics.stale_reads == sharded.metrics.stale_reads
        assert (
            serial.metrics.torn_discards == sharded.metrics.torn_discards
        )

    def test_external_shards_merge_to_the_serial_run(self):
        program = make_program()
        spec = TrafficSpec(
            clients=30, duration=400, requests_per_client=2, seed=9
        )
        kwargs = dict(
            file_sizes={"A": 5, "B": 3},
            deadlines={"A": 100, "B": 50},
            temporal=make_temporal(),
        )
        whole = simulate_traffic(program, ["A", "B"], spec, **kwargs)
        parts = [
            simulate_traffic_shard(
                program, ["A", "B"], spec, lo=lo, hi=hi, **kwargs
            )
            for lo, hi in ((0, 11), (11, 17), (17, 30))
        ]
        merged = TrafficMetrics.merged(parts)
        assert merged.counts == whole.metrics.counts
        assert merged.ages == whole.metrics.ages
        assert merged.item_reads == whole.metrics.item_reads
        assert merged.stale_reads == whole.metrics.stale_reads
        assert merged.torn_discards == whole.metrics.torn_discards
        assert merged.requests_by_file == whole.metrics.requests_by_file

    def test_trace_records_transaction_names(self):
        temporal = make_temporal(
            transactions=(TransactionSpec("both", ["A", "B"], 200),)
        )
        result = self._run(temporal=temporal, trace=True)
        assert result.trace
        assert {record.file for record in result.trace} == {"both"}
