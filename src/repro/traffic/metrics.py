"""Exact streaming metrics for traffic runs.

A population run produces millions of latencies; holding them all to
sort at the end would defeat the point of a streaming simulator.
:class:`TrafficMetrics` is the per-shard accumulator instead: request /
completion / abort / deadline-miss counters, running mean and worst
latency, per-file hit counts (aggregate per disk via
:meth:`TrafficMetrics.hits_by`), and - for version-consistent (temporal)
workloads - staleness tracking: per-item read ages, consistency rate,
and torn-read discards.

Latencies, ages and quorum assembly times are slot counts, so each is
kept as an exact integer histogram bounded by the retrieval horizon
rather than by the request count.  That is what makes shard merging
*exact*: :meth:`TrafficMetrics.merged` sums histograms and recomputes
quantiles from the merged counts
(:meth:`repro.sim.metrics.LatencySummary.merge` works the same way), so
a merged accumulator is independent of the shard layout.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SimulationError, SpecificationError
from repro.sim.metrics import (
    LatencySummary,
    _percentile_from_counts,
    _summary_from_counts,
)


def _tally(
    into: dict[str, int], names: Sequence[str], ids: np.ndarray
) -> None:
    """Add one count per id to ``into[names[id]]``."""
    for i, n in enumerate(np.bincount(ids).tolist()):
        if n:
            into[names[i]] = into.get(names[i], 0) + n


def _count(into: dict, values: np.ndarray) -> None:
    """Add each value of ``values`` to the histogram ``into``."""
    unique, tally = np.unique(values, return_counts=True)
    for value, n in zip(unique.tolist(), tally.tolist()):
        into[value] = into.get(value, 0) + n


class TrafficMetrics:
    """Streaming accumulator for one traffic shard (or a merged run)."""

    def __init__(self) -> None:
        self.requests = 0
        self.completions = 0
        self.aborts = 0
        self.deadline_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.latency_sum = 0
        self.worst = 0
        self.requests_by_file: dict[str, int] = {}
        self.hits_by_file: dict[str, int] = {}
        self.item_reads = 0
        self.stale_reads = 0
        self.torn_discards = 0
        self.age_sum = 0
        self.worst_age = 0
        self.channel_switches = 0
        self.quorum_reads: dict[str, int] = {}
        self.quorum_latency_sum = 0
        self.worst_quorum_latency = 0
        self._counts: dict[int, int] = {}
        self._ages: dict[int, int] = {}
        self._quorum_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self, file: str, latency: int | None, deadline: int | None
    ) -> None:
        """Record one finished request.

        ``latency is None`` means the retrieval never completed within
        its horizon (an *abort*); a completion past ``deadline`` is a
        deadline miss.  Cache hits are completions with latency 0.
        """
        self.requests += 1
        self.requests_by_file[file] = self.requests_by_file.get(file, 0) + 1
        if latency is None:
            self.aborts += 1
            return
        self.completions += 1
        self.hits_by_file[file] = self.hits_by_file.get(file, 0) + 1
        self.latency_sum += latency
        if latency > self.worst:
            self.worst = latency
        if deadline is not None and latency > deadline:
            self.deadline_misses += 1
        self._counts[latency] = self._counts.get(latency, 0) + 1

    def record_many(
        self,
        names: Sequence[str],
        ids: np.ndarray,
        latency: np.ndarray,
        deadlines: np.ndarray,
    ) -> None:
        """Record a batch of finished requests at once.

        Request ``k`` asked for ``names[ids[k]]`` and took
        ``latency[k]`` slots (``-1`` for an abort) against the deadline
        ``deadlines[ids[k]]``.  The result equals calling :meth:`record`
        once per request, in any order - the vectorized engine records
        a whole cohort wave this way.
        """
        completed = latency >= 0
        values = latency[completed]
        self.requests += len(ids)
        self.completions += len(values)
        self.aborts += len(ids) - len(values)
        _tally(self.requests_by_file, names, ids)
        if not len(values):
            return
        finished = ids[completed]
        _tally(self.hits_by_file, names, finished)
        self.latency_sum += int(values.sum())
        self.worst = max(self.worst, int(values.max()))
        self.deadline_misses += int(
            np.count_nonzero(values > deadlines[finished])
        )
        _count(self._counts, values)

    def record_cache(self, hits: int, misses: int, evictions: int) -> None:
        """Fold in one client's cache statistics."""
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_evictions += evictions

    def record_versioned_read(
        self, age: int | None, fresh: bool, torn: int
    ) -> None:
        """Record one version-consistent item read.

        ``age`` is the value's age at completion in slots (``None`` for
        a read that never completed - only its torn discards count);
        ``fresh`` is whether that age satisfied the item's temporal
        constraint; ``torn`` is how many blocks the read threw away to
        mid-retrieval version updates.  Transaction-level latency /
        deadline accounting goes through :meth:`record` as usual - this
        method carries the per-item freshness dimension.
        """
        self.torn_discards += torn
        if age is None:
            return
        self.item_reads += 1
        if not fresh:
            self.stale_reads += 1
        self.age_sum += age
        if age > self.worst_age:
            self.worst_age = age
        self._ages[age] = self._ages.get(age, 0) + 1

    def record_versioned_reads(
        self, ages: np.ndarray, fresh: np.ndarray, torn: np.ndarray
    ) -> None:
        """Record a batch of version-consistent item reads at once.

        Read ``k`` completed with age ``ages[k]`` (``-1`` for a read
        that never completed), satisfied its item's constraint when
        ``fresh[k]`` and threw ``torn[k]`` blocks away.  The result
        equals calling :meth:`record_versioned_read` once per read, in
        any order.
        """
        self.torn_discards += int(torn.sum())
        completed = ages >= 0
        values = ages[completed]
        if not len(values):
            return
        self.item_reads += len(values)
        self.stale_reads += len(values) - int(
            np.count_nonzero(fresh[completed])
        )
        self.age_sum += int(values.sum())
        self.worst_age = max(self.worst_age, int(values.max()))
        _count(self._ages, values)

    def record_channel_switches(self, switches: int) -> None:
        """Fold in re-tunes performed by one retrieval (0 is free)."""
        self.channel_switches += switches

    def record_quorum(self, outcome: str, latency: int | None) -> None:
        """Record one r-of-k quorum read.

        ``outcome`` is ``"ok"`` / ``"mismatch"`` / ``"incomplete"`` (see
        :class:`repro.rtdb.updates.QuorumRead`); ``latency`` is the
        assembly latency in slots for ``"ok"`` reads (None otherwise).
        Exact-mergeable: outcomes are counters, latencies an exact
        integer histogram.
        """
        self.quorum_reads[outcome] = self.quorum_reads.get(outcome, 0) + 1
        if latency is None:
            return
        self.quorum_latency_sum += latency
        if latency > self.worst_quorum_latency:
            self.worst_quorum_latency = latency
        self._quorum_counts[latency] = (
            self._quorum_counts.get(latency, 0) + 1
        )

    def record_quorums(
        self, outcomes: np.ndarray, latency: np.ndarray
    ) -> None:
        """Record a batch of r-of-k quorum reads at once.

        Read ``k`` ended in ``outcomes[k]`` (``"ok"`` / ``"mismatch"`` /
        ``"incomplete"``) and, when it assembled, took ``latency[k]``
        slots (``-1`` otherwise).  The result equals calling
        :meth:`record_quorum` once per read, in any order.
        """
        _count(self.quorum_reads, outcomes)
        values = latency[latency >= 0]
        if not len(values):
            return
        self.quorum_latency_sum += int(values.sum())
        self.worst_quorum_latency = max(
            self.worst_quorum_latency, int(values.max())
        )
        _count(self._quorum_counts, values)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def quorum_total(self) -> int:
        """Quorum reads recorded, over all outcomes."""
        return sum(self.quorum_reads.values())

    @property
    def quorum_ok(self) -> int:
        """Quorum reads that assembled a consistent version."""
        return self.quorum_reads.get("ok", 0)

    @property
    def quorum_success_rate(self) -> float:
        """Fraction of quorum reads that assembled (1.0 with none)."""
        total = self.quorum_total
        return self.quorum_ok / total if total else 1.0

    @property
    def mean_quorum_latency(self) -> float:
        """Mean assembly latency of successful quorum reads, in slots."""
        ok = self.quorum_ok
        return self.quorum_latency_sum / ok if ok else 0.0

    @property
    def quorum_counts(self) -> dict[int, int]:
        """The exact quorum-latency histogram."""
        return dict(self._quorum_counts)

    def quorum_quantile(self, q: float) -> float:
        """The ``q``-quantile of quorum assembly latencies."""
        if not self.quorum_ok:
            return math.nan
        if not 0.0 < q < 1.0:
            raise SpecificationError(f"quantile must be in (0, 1): {q}")
        return float(
            _percentile_from_counts(
                sorted(self._quorum_counts.items()), self.quorum_ok, q
            )
        )

    @property
    def mean_latency(self) -> float:
        """Mean completed-retrieval latency in slots."""
        return (
            self.latency_sum / self.completions if self.completions else 0.0
        )

    @property
    def abort_rate(self) -> float:
        """Fraction of requests that never completed."""
        return self.aborts / self.requests if self.requests else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of requests aborted or completed past deadline."""
        if not self.requests:
            return 0.0
        return (self.aborts + self.deadline_misses) / self.requests

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of requests that completed past their deadline."""
        return self.deadline_misses / self.requests if self.requests else 0.0

    @property
    def consistency_rate(self) -> float:
        """Fraction of completed item reads that were temporally fresh.

        1.0 with no versioned reads recorded (nothing violated a
        constraint); the denominator is *completed* reads - aborted
        retrievals count against :attr:`abort_rate`, not staleness.
        """
        if not self.item_reads:
            return 1.0
        return (self.item_reads - self.stale_reads) / self.item_reads

    @property
    def mean_age(self) -> float:
        """Mean age at completion of versioned item reads, in slots."""
        return self.age_sum / self.item_reads if self.item_reads else 0.0

    @property
    def ages(self) -> dict[int, int]:
        """The exact age histogram."""
        return dict(self._ages)

    def age_quantile(self, q: float) -> float:
        """The ``q``-quantile of completed read ages."""
        if not self.item_reads:
            return math.nan
        if not 0.0 < q < 1.0:
            raise SpecificationError(f"quantile must be in (0, 1): {q}")
        return float(
            _percentile_from_counts(
                sorted(self._ages.items()), self.item_reads, q
            )
        )

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of completed latencies (nearest rank over
        the exact histogram; ``nan`` with no completions)."""
        if not self.completions:
            return math.nan
        if not 0.0 < q < 1.0:
            raise SpecificationError(f"quantile must be in (0, 1): {q}")
        return float(
            _percentile_from_counts(
                sorted(self._counts.items()), self.completions, q
            )
        )

    @property
    def counts(self) -> dict[int, int]:
        """The exact latency histogram."""
        return dict(self._counts)

    def hits_by(self, groups: Mapping[str, str]) -> dict[str, int]:
        """Completed retrievals aggregated by group (e.g. per disk).

        ``groups`` maps file names to group labels; files missing from
        the mapping aggregate under ``"?"``.
        """
        out: dict[str, int] = {}
        for file, hits in self.hits_by_file.items():
            label = groups.get(file, "?")
            out[label] = out.get(label, 0) + hits
        return out

    def summary(self) -> LatencySummary:
        """A :class:`LatencySummary` of the run so far.

        ``misses`` counts aborts plus deadline misses.  The percentiles
        are exact and the summary carries its histogram, so
        :meth:`LatencySummary.merge` works on it.
        """
        if not self.requests:
            raise SimulationError("no requests recorded")
        return _summary_from_counts(
            sorted(
                (float(value), count)
                for value, count in self._counts.items()
            ),
            self.requests,
            self.aborts + self.deadline_misses,
            None,
        )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    @classmethod
    def merged(cls, parts: Sequence["TrafficMetrics"]) -> "TrafficMetrics":
        """Aggregate per-shard accumulators exactly.

        Counters and histograms sum, and quantiles of the result come
        from the merged histogram, so the merged accumulator is a pure
        function of the union of observations - independent of how the
        population was sharded.
        """
        if not parts:
            raise SimulationError("cannot merge zero accumulators")
        out = cls()
        counts: dict[int, int] = {}
        ages: dict[int, int] = {}
        quorum_counts: dict[int, int] = {}
        for part in parts:
            out.requests += part.requests
            out.completions += part.completions
            out.aborts += part.aborts
            out.deadline_misses += part.deadline_misses
            out.cache_hits += part.cache_hits
            out.cache_misses += part.cache_misses
            out.cache_evictions += part.cache_evictions
            out.latency_sum += part.latency_sum
            out.worst = max(out.worst, part.worst)
            out.item_reads += part.item_reads
            out.stale_reads += part.stale_reads
            out.torn_discards += part.torn_discards
            out.age_sum += part.age_sum
            out.worst_age = max(out.worst_age, part.worst_age)
            out.channel_switches += part.channel_switches
            out.quorum_latency_sum += part.quorum_latency_sum
            out.worst_quorum_latency = max(
                out.worst_quorum_latency, part.worst_quorum_latency
            )
            for outcome, n in part.quorum_reads.items():
                out.quorum_reads[outcome] = (
                    out.quorum_reads.get(outcome, 0) + n
                )
            for value, n in part._quorum_counts.items():
                quorum_counts[value] = quorum_counts.get(value, 0) + n
            for file, n in part.requests_by_file.items():
                out.requests_by_file[file] = (
                    out.requests_by_file.get(file, 0) + n
                )
            for file, n in part.hits_by_file.items():
                out.hits_by_file[file] = out.hits_by_file.get(file, 0) + n
            for value, n in part._counts.items():
                counts[value] = counts.get(value, 0) + n
            for value, n in part._ages.items():
                ages[value] = ages.get(value, 0) + n
        out._counts = counts
        out._ages = ages
        out._quorum_counts = quorum_counts
        return out

    def __repr__(self) -> str:
        return (
            f"TrafficMetrics(requests={self.requests}, "
            f"completions={self.completions}, aborts={self.aborts}, "
            f"deadline_misses={self.deadline_misses})"
        )
