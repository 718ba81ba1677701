"""Tests for the exact streaming traffic-metrics accumulator."""

import math
import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.metrics import LatencySummary
from repro.traffic.metrics import TrafficMetrics


def exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestTrafficMetrics:
    def fill(self, metrics, latencies, deadline=100, file="f"):
        for latency in latencies:
            metrics.record(file, latency, deadline)

    def test_counters(self):
        metrics = TrafficMetrics()
        self.fill(metrics, [5, 10, None, 200])
        assert metrics.requests == 4
        assert metrics.completions == 3
        assert metrics.aborts == 1
        assert metrics.deadline_misses == 1  # the 200 vs deadline 100
        assert metrics.miss_rate == pytest.approx(0.5)
        assert metrics.abort_rate == pytest.approx(0.25)
        assert metrics.mean_latency == pytest.approx((5 + 10 + 200) / 3)
        assert metrics.worst == 200

    def test_exact_quantiles_match_reference(self):
        rng = random.Random(17)
        values = [rng.randrange(1, 500) for _ in range(5000)]
        metrics = TrafficMetrics()
        self.fill(metrics, values, deadline=10**9)
        for q in (0.5, 0.95, 0.99):
            assert metrics.quantile(q) == exact_quantile(values, q)

    def test_short_stream_summary_is_finite(self):
        metrics = TrafficMetrics()
        self.fill(metrics, [3, 9], deadline=10**9)
        summary = metrics.summary()
        assert summary.p50 == 3 and summary.p99 == 9
        assert summary.worst == 9

    def test_empty_stream_quantile_is_nan(self):
        metrics = TrafficMetrics()
        assert math.isnan(metrics.quantile(0.5))
        metrics.record("f", None, None)  # an abort is not a completion
        assert math.isnan(metrics.quantile(0.99))

    def test_summary_is_mergeable(self):
        metrics = TrafficMetrics()
        self.fill(metrics, [1, 2, 3, None], deadline=100)
        summary = metrics.summary()
        assert summary.misses == 1
        assert summary.counts
        again = LatencySummary.merge([summary])
        assert again == summary

    def test_per_file_counts_and_grouping(self):
        metrics = TrafficMetrics()
        metrics.record("a", 5, 100)
        metrics.record("a", None, 100)
        metrics.record("b", 7, 100)
        assert metrics.requests_by_file == {"a": 2, "b": 1}
        assert metrics.hits_by_file == {"a": 1, "b": 1}
        assert metrics.hits_by({"a": "disk0", "b": "disk1"}) == {
            "disk0": 1,
            "disk1": 1,
        }
        assert metrics.hits_by({}) == {"?": 2}

    def test_merged_equals_single_stream(self):
        rng = random.Random(5)
        values = [
            rng.randrange(1, 50) if rng.random() > 0.05 else None
            for _ in range(2000)
        ]
        whole = TrafficMetrics()
        self.fill(whole, values, deadline=30)
        parts = []
        for chunk_start in range(0, 2000, 500):
            part = TrafficMetrics()
            self.fill(
                part, values[chunk_start:chunk_start + 500], deadline=30
            )
            parts.append(part)
        merged = TrafficMetrics.merged(parts)
        finalized = TrafficMetrics.merged([whole])
        assert merged.requests == finalized.requests
        assert merged.aborts == finalized.aborts
        assert merged.deadline_misses == finalized.deadline_misses
        assert merged.counts == finalized.counts
        assert merged.summary() == finalized.summary()

    def test_record_many_matches_recording(self):
        # Batches in arbitrary id order, with aborts, deadline misses,
        # an empty batch and names that are never requested, must leave
        # every observable equal to recording request by request.
        rng = random.Random(43)
        names = ["a", "b", "c", "d", "e"]
        deadlines = np.asarray([5, 40, 12, 25, 60], dtype=np.int64)
        batched = TrafficMetrics()
        recorded = TrafficMetrics()
        for size in [0] + [rng.randrange(1, 60) for _ in range(25)]:
            ids = np.asarray(
                [rng.choice([0, 1, 3]) for _ in range(size)], dtype=np.int64
            )
            latency = np.asarray(
                [
                    -1 if rng.random() < 0.1 else rng.randrange(0, 70)
                    for _ in range(size)
                ],
                dtype=np.int64,
            )
            batched.record_many(names, ids, latency, deadlines)
            for fid, waited in zip(ids.tolist(), latency.tolist()):
                recorded.record(
                    names[fid],
                    None if waited < 0 else waited,
                    int(deadlines[fid]),
                )
        assert recorded.aborts and recorded.deadline_misses
        assert set(recorded.requests_by_file) == {"a", "b", "d"}
        for field in (
            "requests", "completions", "aborts", "deadline_misses",
            "latency_sum", "worst", "requests_by_file", "hits_by_file",
            "counts",
        ):
            assert getattr(batched, field) == getattr(recorded, field)
        assert batched.summary() == recorded.summary()
        for q in (0.5, 0.95, 0.99):
            assert batched.quantile(q) == recorded.quantile(q)

    def test_record_versioned_reads_matches_recording(self):
        # Batches with incomplete reads (age -1: only their torn blocks
        # count), stale and fresh reads and an empty batch must leave
        # every observable equal to recording read by read.
        rng = random.Random(47)
        batched = TrafficMetrics()
        recorded = TrafficMetrics()
        incomplete = 0
        for size in [0] + [rng.randrange(1, 40) for _ in range(25)]:
            ages = np.asarray(
                [
                    -1 if rng.random() < 0.2 else rng.randrange(0, 90)
                    for _ in range(size)
                ],
                dtype=np.int64,
            )
            fresh = np.asarray(
                [rng.random() < 0.7 for _ in range(size)], dtype=bool
            )
            torn = np.asarray(
                [rng.randrange(0, 4) for _ in range(size)], dtype=np.int64
            )
            incomplete += int(np.count_nonzero(ages < 0))
            batched.record_versioned_reads(ages, fresh, torn)
            for age, ok, lost in zip(
                ages.tolist(), fresh.tolist(), torn.tolist()
            ):
                recorded.record_versioned_read(
                    None if age < 0 else age, ok, lost
                )
        assert incomplete and recorded.stale_reads
        for field in (
            "item_reads", "stale_reads", "torn_discards", "age_sum",
            "worst_age", "ages", "consistency_rate", "mean_age",
        ):
            assert getattr(batched, field) == getattr(recorded, field)
        for q in (0.5, 0.95, 0.99):
            assert batched.age_quantile(q) == recorded.age_quantile(q)

    def test_merge_of_nothing_rejected(self):
        with pytest.raises(SimulationError):
            TrafficMetrics.merged([])

    def test_cache_stats_fold_in(self):
        metrics = TrafficMetrics()
        metrics.record_cache(3, 2, 1)
        metrics.record_cache(1, 1, 0)
        assert (metrics.cache_hits, metrics.cache_misses,
                metrics.cache_evictions) == (4, 3, 1)


class TestChannelDimension:
    """The multi-channel dimension obeys the exact-merge contract."""

    def fill(self, metrics, reads):
        for outcome, latency, switches in reads:
            metrics.record_quorum(outcome, latency)
            metrics.record_channel_switches(switches)

    def reads(self):
        rng = random.Random(31)
        out = []
        for _ in range(300):
            outcome = rng.choice(["ok", "ok", "mismatch", "incomplete"])
            latency = rng.randrange(1, 80) if outcome == "ok" else None
            out.append((outcome, latency, rng.randrange(0, 3)))
        return out

    def test_recording(self):
        metrics = TrafficMetrics()
        metrics.record_quorum("ok", 12)
        metrics.record_quorum("ok", 30)
        metrics.record_quorum("mismatch", None)
        metrics.record_channel_switches(2)
        metrics.record_channel_switches(0)
        assert metrics.channel_switches == 2
        assert metrics.quorum_reads == {"ok": 2, "mismatch": 1}
        assert metrics.quorum_total == 3
        assert metrics.quorum_ok == 2
        assert metrics.quorum_success_rate == pytest.approx(2 / 3)
        assert metrics.mean_quorum_latency == 21.0
        assert metrics.worst_quorum_latency == 30
        assert metrics.quorum_quantile(0.5) == 12

    def test_record_quorums_matches_recording(self):
        # Batches mixing all three outcomes, plus an empty batch, equal
        # recording the same reads one at a time.
        reads = self.reads()
        batched = TrafficMetrics()
        recorded = TrafficMetrics()
        for start, stop in [(0, 0), (0, 1), (1, 120), (120, 300)]:
            batch = reads[start:stop]
            batched.record_quorums(
                np.asarray([outcome for outcome, _, _ in batch], dtype=str),
                np.asarray(
                    [-1 if latency is None else latency
                     for _, latency, _ in batch],
                    dtype=np.int64,
                ),
            )
            for outcome, latency, _ in batch:
                recorded.record_quorum(outcome, latency)
        assert set(recorded.quorum_reads) == {"ok", "mismatch", "incomplete"}
        for field in (
            "quorum_reads", "quorum_total", "quorum_ok",
            "quorum_latency_sum", "worst_quorum_latency", "quorum_counts",
            "mean_quorum_latency",
        ):
            assert getattr(batched, field) == getattr(recorded, field)
        for q in (0.5, 0.9, 0.99):
            assert batched.quorum_quantile(q) == recorded.quorum_quantile(q)

    def test_merged_equals_single_stream(self):
        reads = self.reads()
        whole = TrafficMetrics()
        self.fill(whole, reads)
        parts = []
        for start in range(0, len(reads), 75):
            part = TrafficMetrics()
            self.fill(part, reads[start:start + 75])
            parts.append(part)
        merged = TrafficMetrics.merged(parts)
        finalized = TrafficMetrics.merged([whole])
        assert merged.channel_switches == finalized.channel_switches
        assert merged.quorum_reads == finalized.quorum_reads
        assert merged.quorum_latency_sum == finalized.quorum_latency_sum
        assert (
            merged.worst_quorum_latency == finalized.worst_quorum_latency
        )
        for q in (0.5, 0.9, 0.99):
            assert merged.quorum_quantile(q) == finalized.quorum_quantile(q)
