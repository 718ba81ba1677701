"""The top-level traffic simulation: populations at scale.

:func:`simulate_traffic` runs a :class:`repro.traffic.spec.TrafficSpec`
population against a designed :class:`~repro.bdisk.program.BroadcastProgram`:

1. each client gets an independent seeded RNG substream and an arrival
   slot;
2. requests retrieve in cohorts over flat tables (the default ``"soa"``
   engine, :mod:`repro.traffic.engine_soa`) or, in the ``"object"``
   engine, in one plain loop per client, each request one call of a
   scalar walker (:func:`repro.sim.client.retrieve` and its versioned
   and multichannel kin) - the receiver model written out plainly;
3. metrics stream into exact integer histograms - nothing per-request
   is retained unless tracing is requested.

Because clients are derived from their index alone and fault decisions
are deterministic per ``(seed, slot)``, the population shards exactly:
``max_workers=N`` splits the index range across a process pool and
merges the per-shard accumulators, producing bit-identical counters,
histograms, and summaries regardless of worker count.  A pooled
shard carries what it retrieves from: the program or channel set, or -
for non-temporal ``"soa"`` populations - the parent's flat retrieval
tables, pickled, so no worker rebuilds an occurrence index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Mapping, Sequence

from repro.errors import SimulationError, SpecificationError
from repro.fields import check_int
from repro.bdisk.multichannel import ChannelSet
from repro.bdisk.program import BroadcastProgram
from repro.obs import telemetry as obs
from repro.rtdb.spec import TemporalSpec
from repro.rtdb.transactions import ReadTransaction
from repro.rtdb.updates import (
    retrieve_versioned,
    retrieve_versioned_quorum,
    versioned_listen_horizon,
)
from repro.sim.cache import CachingClient, LruCache, PixCache
from repro.sim.client import (
    listen_horizon,
    retrieve,
    retrieve_multichannel,
)
from repro.sim.faults import FaultModel, NoFaults
from repro.sim.metrics import LatencySummary
from repro.sim.workload import sample_accesses
from repro.traffic.arrivals import (
    arrival_rng,
    arrival_slot,
    client_rng,
    popularity_cdf,
    popularity_weights,
    think_slots,
)
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.spec import TrafficSpec

#: Shard-engine implementations ``simulate_traffic`` can run:
#: ``"soa"``, the default, is the vectorized structure-of-arrays engine
#: (:mod:`repro.traffic.engine_soa`); ``"object"`` is one plain loop
#: per client, the executable spec that the tests, CI and the
#: end-to-end benchmark's checks compare it against - bit-identical
#: results, an order of magnitude slower.
ENGINES = ("object", "soa")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise SpecificationError(
            f"unknown traffic engine {engine!r} (choose from "
            f"{', '.join(ENGINES)})"
        )


def _record_shard_metrics(metrics: TrafficMetrics, engine: str) -> None:
    """Feed one finished shard accumulator into the active telemetry.

    Called exactly once per shard, *shard-side* (inside the worker's
    capture for pooled runs, under the caller's registry serially), so
    parent-side merges never double count.  Everything here derives from
    the exact :class:`TrafficMetrics` accumulator, which is invariant
    under shard layout - these are the ``exact``-stability instruments
    the serial==sharded property tests compare.
    """
    tel = obs.current()
    if tel is None:
        return
    tel.inc("traffic.requests", metrics.requests, engine=engine)
    tel.inc("traffic.completions", metrics.completions, engine=engine)
    tel.inc("traffic.aborts", metrics.aborts, engine=engine)
    tel.inc(
        "traffic.deadline_misses", metrics.deadline_misses, engine=engine
    )
    if metrics.channel_switches:
        tel.inc(
            "traffic.tuning.switches", metrics.channel_switches,
            engine=engine,
        )
    for outcome, count in sorted(metrics.quorum_reads.items()):
        tel.inc(
            "traffic.quorum.reads", count, engine=engine, outcome=outcome
        )
    hist = tel.histogram("traffic.latency_slots", unit="slots", engine=engine)
    for value, count in sorted(metrics.counts.items()):
        hist.observe(value, count)


def _channel_fault_models(
    faults: Any, count: int
) -> list[FaultModel] | None:
    """Fresh per-channel fault-model instances for a ``count``-set.

    ``None`` stays ``None`` (every channel clean).  A declarative spec
    with :meth:`~repro.api.scenario.FaultSpec.for_channel` derives one
    independent model per channel (stochastic channels get decorrelated
    seed substreams).  A sequence supplies per-channel entries verbatim
    (``None`` entries mean a clean channel).  A bare shared
    :class:`FaultModel` instance is rejected - one RNG stream cannot
    serve ``k`` channels without correlating their losses.
    """
    if faults is None:
        return None
    for_channel = getattr(faults, "for_channel", None)
    if callable(for_channel):
        return [
            _build_fault_model(for_channel(channel))
            for channel in range(count)
        ]
    if isinstance(faults, Sequence) and not isinstance(
        faults, (str, bytes)
    ):
        entries = list(faults)
        if len(entries) != count:
            raise SpecificationError(
                f"per-channel faults must have one entry per channel: "
                f"got {len(entries)} for {count} channel(s)"
            )
        return [_build_fault_model(entry) for entry in entries]
    raise SpecificationError(
        f"multi-channel traffic needs a FaultSpec (per-channel "
        f"derivation via for_channel), a per-channel sequence, or None; "
        f"got {type(faults).__name__}"
    )


def _validate_channels(channels: Any, spec: TrafficSpec) -> None:
    """Eager checks for a multi-channel traffic run."""
    if channels is None:
        return
    if not isinstance(channels, ChannelSet):
        raise SpecificationError(
            f"channels must be a ChannelSet, got "
            f"{type(channels).__name__}"
        )
    if spec.cache is not None:
        raise SpecificationError(
            "client caches are not supported over multi-channel sets "
            "(a cached copy would bypass the tuning model); remove the "
            "traffic cache from multi-channel scenarios"
        )


def _popularity(
    law: Callable[..., Sequence[float]], spec: TrafficSpec, count: int
) -> Sequence[float]:
    """The spec's popularity ``law`` (weights or their running totals)."""
    return law(
        spec.popularity,
        count,
        zipf_skew=spec.zipf_skew,
        hot_fraction=spec.hot_fraction,
        hot_weight=spec.hot_weight,
    )


def _temporal_mix(
    temporal: TemporalSpec,
    catalogue: tuple[str, ...],
    deadlines: Mapping[str, int],
    weights: Sequence[float],
) -> tuple[list[ReadTransaction], list[float]]:
    """The weighted transaction mix a temporal population draws from.

    An explicit mix is used verbatim with its declared weights; without
    one, every catalogue file becomes a single-item transaction whose
    deadline is the file's design deadline, weighted by the traffic
    spec's popularity law - the versioned analogue of plain requests.
    """
    if temporal.transactions:
        return (
            [txn.as_transaction() for txn in temporal.transactions],
            [txn.weight for txn in temporal.transactions],
        )
    return (
        [
            ReadTransaction(file, (file,), deadlines[file])
            for file in catalogue
        ],
        list(weights),
    )


def _validate_temporal(
    temporal: TemporalSpec,
    spec: TrafficSpec,
    catalogue: tuple[str, ...],
) -> None:
    items = {item.name for item in temporal.items}
    missing = set(catalogue) - items
    if missing:
        raise SimulationError(
            f"catalogue files {sorted(missing)} are not temporal items"
        )
    for txn in temporal.transactions:
        ghost = set(txn.items) - set(catalogue)
        if ghost:
            raise SimulationError(
                f"transaction {txn.name!r} reads items {sorted(ghost)} "
                f"outside the broadcast catalogue"
            )
    if spec.cache is not None:
        raise SpecificationError(
            "client caches do not apply to version-consistent reads "
            "(a cached copy would go stale); remove the traffic cache "
            "from temporal scenarios"
        )


def shard_bounds(clients: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` client ranges splitting a population.

    The canonical shard layout: ``shards`` is clamped to ``clients``
    (never an empty shard), ranges cover ``[0, clients)`` exactly, and
    the same layout drives both :func:`simulate_traffic`'s internal pool
    and external orchestrators that submit
    :func:`simulate_traffic_shard` calls to a shared pool.  Clients
    derive all behaviour from their index, so any layout merges to
    bit-identical results - this one is just the balanced default.
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise SpecificationError(f"shard count must be >= 1: {shards!r}")
    if (
        not isinstance(clients, int)
        or isinstance(clients, bool)
        or clients < 1
    ):
        raise SpecificationError(
            f"client count must be a positive integer: {clients!r}"
        )
    shards = min(shards, clients)
    return [
        (clients * shard // shards, clients * (shard + 1) // shards)
        for shard in range(shards)
    ]


def _validate_population(
    program: BroadcastProgram | None,
    catalogue: tuple[str, ...],
    file_sizes: Mapping[str, int],
    deadlines: Mapping[str, int],
    channels: ChannelSet | None = None,
) -> None:
    if not catalogue:
        raise SpecificationError("traffic catalogue must not be empty")
    if len(set(catalogue)) != len(catalogue):
        raise SpecificationError("traffic catalogue has duplicate files")
    for file in catalogue:
        if channels is not None:
            if file not in channels.assignment:
                raise SimulationError(
                    f"file {file!r} is not broadcast on any channel"
                )
        elif file not in program.files:
            raise SimulationError(f"file {file!r} is not broadcast")
        if file not in file_sizes:
            raise SimulationError(f"no size known for file {file!r}")
        if file not in deadlines:
            raise SimulationError(f"no deadline known for file {file!r}")


def simulate_traffic_shard(
    program: BroadcastProgram | None,
    catalogue: Sequence[str],
    spec: TrafficSpec,
    *,
    file_sizes: Mapping[str, int],
    deadlines: Mapping[str, int],
    faults: Any = None,
    temporal: TemporalSpec | None = None,
    channels: ChannelSet | None = None,
    lo: int,
    hi: int,
    engine: str = "soa",
) -> TrafficMetrics:
    """Simulate clients ``[lo, hi)`` of a population - one pool task.

    The public face of the shard runner for *external* process pools: a
    sweep orchestrator interleaves these with other scenarios' work on
    one shared pool instead of letting every :func:`simulate_traffic`
    call spin up its own.  Merge the per-shard accumulators with
    :meth:`TrafficMetrics.merged` to get the exact whole-population
    metrics; the merge is independent of the shard layout *and* of the
    engine each shard ran.  Per-request tracing is a whole-run concern -
    use :func:`simulate_traffic` for it.
    """
    catalogue = tuple(catalogue)
    _check_engine(engine)
    _validate_channels(channels, spec)
    if channels is None and program is None:
        raise SpecificationError(
            "simulate_traffic_shard needs a program or a channel set"
        )
    _validate_population(program, catalogue, file_sizes, deadlines, channels)
    if temporal is not None:
        _validate_temporal(temporal, spec, catalogue)
    if not 0 <= lo < hi <= spec.clients:
        raise SpecificationError(
            f"shard [{lo}, {hi}) is not a sub-range of "
            f"[0, {spec.clients})"
        )
    sizes = {file: file_sizes[file] for file in catalogue}
    limits = {file: deadlines[file] for file in catalogue}
    metrics, _ = _shard_runner(engine)(
        program, catalogue, spec, sizes, limits, faults, temporal,
        lo, hi, False, channels=channels,
    )
    return metrics


def _shard_runner(engine: str):
    """The shard function of ``engine``; both share one signature."""
    if engine == "soa":
        from repro.traffic.engine_soa import simulate_shard_soa

        return simulate_shard_soa
    return _simulate_shard


def _pool_shard_task(
    engine: str,
    program: BroadcastProgram | None,
    catalogue: tuple[str, ...],
    spec: TrafficSpec,
    sizes: dict[str, int],
    limits: dict[str, int],
    faults: Any,
    temporal: TemporalSpec | None,
    lo: int,
    hi: int,
    trace: bool,
    shard_state: Mapping[str, Any],
) -> tuple[TrafficMetrics, list[RequestRecord]]:
    """Pool task: one shard under a ``traffic.shard`` span.

    ``shard_state`` holds the runner's keyword arguments: the channel
    set, or a vectorized shard's prebuilt ``tables`` / ``mc_tables``.
    The pool runs it through :func:`repro.obs.telemetry.call_captured`,
    so with telemetry on the worker's instruments (the engine's own and
    :func:`_record_shard_metrics`) ride back for the parent to merge.
    """
    with obs.span("traffic.shard", engine=engine, lo=lo, hi=hi):
        return _shard_runner(engine)(
            program, catalogue, spec, sizes, limits, faults, temporal,
            lo, hi, trace, **shard_state,
        )


def _build_fault_model(faults: Any) -> FaultModel:
    """A fresh fault-model instance from a spec, a model, or ``None``."""
    if faults is None:
        return NoFaults()
    build = getattr(faults, "build", None)
    if callable(build):  # a FaultSpec-like declarative object
        return build()
    if not callable(getattr(faults, "is_lost", None)):
        raise SpecificationError(
            f"faults must be a FaultModel, a FaultSpec, or None, got "
            f"{type(faults).__name__}: {faults!r}"
        )
    return faults


def _simulate_shard(
    program: BroadcastProgram | None,
    catalogue: tuple[str, ...],
    spec: TrafficSpec,
    file_sizes: dict[str, int],
    deadlines: dict[str, int],
    faults: Any,
    temporal: TemporalSpec | None,
    lo: int,
    hi: int,
    trace: bool,
    *,
    channels: ChannelSet | None = None,
) -> tuple[TrafficMetrics, list[RequestRecord]]:
    """Simulate clients ``[lo, hi)`` with the object engine.

    One loop per client, the paper's receiver model written out: the
    client arrives, and each request draws its pick, makes one call of
    a scalar walker (or of the client's cache) from the issue slot and
    is recorded; while requests remain, the client thinks and issues
    the next one at ``finish + 1 + think`` - one retrieval at a time.
    A temporal request is a read transaction: its items are fetched in
    order, each from the slot after the one before, and the first item
    that aborts aborts the transaction.  Clients are independent and
    the metrics accumulator is order-independent, so serving them one
    after another is exact for any shard layout.  Module-level so
    process pools can pickle it.
    """
    fault_model: FaultModel | None = None
    channel_faults: list[FaultModel] | None = None
    if channels is not None:
        channel_faults = _channel_fault_models(faults, channels.count)
    else:
        fault_model = _build_fault_model(faults)
    weights = _popularity(popularity_weights, spec, len(catalogue))
    if temporal is None:
        cum_weights = _popularity(popularity_cdf, spec, len(catalogue))
    else:
        server = temporal.server()
        max_age = temporal.max_age_slots()
        mix, mix_weights = _temporal_mix(
            temporal, catalogue, deadlines, weights
        )
        cum_weights = list(accumulate(mix_weights))
    pix: PixCache | None = None
    if spec.cache == "pix":
        # PIX is stateless (probability over frequency), so one instance
        # serves every client in the shard.
        pix = PixCache.for_program(
            program, dict(zip(catalogue, weights)), file_sizes
        )
    metrics = TrafficMetrics()
    records: list[RequestRecord] = []

    for index in range(lo, hi):
        rng = client_rng(spec.seed, index)
        now = arrival_slot(
            spec.arrival,
            arrival_rng(spec.seed, index),
            index,
            spec.clients,
            spec.duration,
            bursts=spec.bursts,
            burst_width=spec.burst_width,
        )
        tuned = 0  # clients sign on tuned to channel 0
        cache: CachingClient | None = None
        if spec.cache is not None:
            cache = CachingClient(
                program,
                file_sizes,
                spec.cache_capacity,
                pix if pix is not None else LruCache(),
                faults=fault_model,
                max_slots=spec.max_slots,
            )
        # ``left``: the requests still to come after this one.
        for left in reversed(range(spec.requests_per_client)):
            pick = sample_accesses(rng, None, 1, cum_weights=cum_weights)[0]
            hit = False
            if temporal is not None:
                txn = mix[pick]
                name, deadline = txn.name, txn.deadline_slots
                clock = now
                for item in txn.items:
                    if channels is not None:
                        read = retrieve_versioned_quorum(
                            channels,
                            server,
                            item,
                            file_sizes[item],
                            start=clock,
                            tuned=tuned,
                            faults=channel_faults,
                            max_slots=spec.max_slots,
                        )
                        metrics.record_channel_switches(read.switches)
                        metrics.record_quorum(read.outcome, read.latency)
                        tuned = read.tuned
                        latency = read.latency if read.completed else None
                        finish = read.finish_slot
                    else:
                        read = retrieve_versioned(
                            program,
                            server,
                            item,
                            file_sizes[item],
                            start=clock,
                            faults=fault_model,
                            max_slots=spec.max_slots,
                        )
                        latency, finish = read.latency, read.finish_slot
                        if finish is None:  # aborted: heard the horizon
                            finish = clock + versioned_listen_horizon(
                                program,
                                item,
                                file_sizes[item],
                                server.period(item),
                                max_slots=spec.max_slots,
                            ) - 1
                    age = read.age_at_completion
                    metrics.record_versioned_read(
                        age,
                        age is not None and age <= max_age[item],
                        read.torn_discards,
                    )
                    if latency is None:
                        break
                    clock = finish + 1
                else:  # every item read: the transaction's response time
                    latency = finish - now + 1
            else:
                name = catalogue[pick]
                deadline = deadlines[name]
                if cache is not None:
                    result = cache.access(name, now)
                    hit = result is None  # answered locally, zero slots
                    if hit:
                        latency, finish = 0, now
                    else:
                        latency, finish = result.latency, result.finish_slot
                        if finish is None:
                            finish = now + cache.horizon(name) - 1
                elif channels is not None:
                    result = retrieve_multichannel(
                        channels,
                        name,
                        file_sizes[name],
                        start=now,
                        tuned=tuned,
                        faults=channel_faults,
                        max_slots=spec.max_slots,
                    )
                    if result.switched:
                        tuned = result.channel
                        metrics.record_channel_switches(1)
                    latency, finish = result.latency, result.finish_slot
                else:
                    result = retrieve(
                        program,
                        name,
                        file_sizes[name],
                        start=now,
                        faults=fault_model,
                        max_slots=spec.max_slots,
                    )
                    latency, finish = result.latency, result.finish_slot
                    if latency is None:  # aborted: heard the horizon
                        horizon = listen_horizon(
                            program, file_sizes[name], spec.max_slots
                        )
                        finish = now + horizon - 1
            metrics.record(name, latency, deadline)
            if trace:
                records.append(
                    RequestRecord(index, name, now, latency, deadline, hit)
                )
            if left:
                now = finish + 1 + think_slots(rng, spec.think_time)
        if cache is not None:
            stats = cache.stats
            metrics.record_cache(stats.hits, stats.misses, stats.evictions)
    _record_shard_metrics(metrics, "object")
    return metrics, records


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One request's trace entry (collected only when tracing)."""

    client: int
    file: str
    issued: int
    latency: int | None
    deadline: int
    cache_hit: bool

    @property
    def completed(self) -> bool:
        return self.latency is not None

    @property
    def met_deadline(self) -> bool:
        return self.latency is not None and self.latency <= self.deadline


@dataclass(frozen=True)
class TrafficResult:
    """Everything one traffic run produced.

    ``metrics`` is the merged (exact) accumulator; ``trace`` is empty
    unless the run was traced.  ``elapsed`` is wall-clock seconds for
    the whole run including any process-pool overhead, which makes
    :attr:`requests_per_sec` the *sustained* simulated request rate.
    ``temporal`` records whether the population ran version-consistent
    read transactions - it keeps the freshness block in reports and
    records even when every read aborted (item_reads of zero must read
    as "nothing ever completed", not "not a temporal run").
    """

    spec: TrafficSpec
    metrics: TrafficMetrics
    elapsed: float
    workers: int
    temporal: bool = False
    trace: tuple[RequestRecord, ...] = field(default=())
    #: Whether the population retrieved over a multi-channel set -
    #: keeps the channel block in reports and records even when no
    #: client ever re-tuned.
    channels: bool = False

    @property
    def requests(self) -> int:
        return self.metrics.requests

    @property
    def completions(self) -> int:
        return self.metrics.completions

    @property
    def aborts(self) -> int:
        return self.metrics.aborts

    @property
    def deadline_misses(self) -> int:
        return self.metrics.deadline_misses

    @property
    def abort_rate(self) -> float:
        return self.metrics.abort_rate

    @property
    def miss_rate(self) -> float:
        return self.metrics.miss_rate

    @property
    def requests_per_sec(self) -> float:
        """Sustained simulated requests per wall-clock second."""
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def summary(self) -> LatencySummary:
        """The exact latency summary (mergeable across runs)."""
        return self.metrics.summary()

    def report(self) -> str:
        """A human-readable multi-line report (the CLI's output)."""
        m = self.metrics
        lines = [
            f"traffic   : {self.spec.describe()}",
            (
                f"served    : {self.requests} requests in "
                f"{self.elapsed:.2f}s wall "
                f"({self.requests_per_sec:,.0f} req/s sustained, "
                f"{self.workers} worker"
                f"{'s' if self.workers != 1 else ''})"
            ),
        ]
        if self.completions:
            lines.append(
                f"latency   : mean {m.mean_latency:.2f}, "
                f"p50 {m.quantile(0.50):.0f}, "
                f"p95 {m.quantile(0.95):.0f}, "
                f"p99 {m.quantile(0.99):.0f}, "
                f"worst {m.worst} slots"
            )
        lines.append(
            f"misses    : miss rate {self.miss_rate:.3f} "
            f"(deadline {self.deadline_misses}, aborts {self.aborts})"
        )
        if m.item_reads:
            lines.append(
                f"freshness : consistency {m.consistency_rate:.3f} "
                f"({m.stale_reads} stale of {m.item_reads} reads), "
                f"age mean {m.mean_age:.1f} "
                f"p95 {m.age_quantile(0.95):.0f} "
                f"worst {m.worst_age} slots, "
                f"torn {m.torn_discards}"
            )
        elif self.temporal:
            lines.append(
                f"freshness : no read ever completed "
                f"(torn {m.torn_discards})"
            )
        if self.channels:
            line = f"channels  : switches {m.channel_switches}"
            if m.quorum_total:
                line += (
                    f", quorum ok {m.quorum_ok}/{m.quorum_total} "
                    f"({m.quorum_success_rate:.3f})"
                )
                if m.quorum_ok:
                    line += (
                        f", quorum latency mean "
                        f"{m.mean_quorum_latency:.2f} "
                        f"p95 {m.quorum_quantile(0.95):.0f} "
                        f"worst {m.worst_quorum_latency} slots"
                    )
            lines.append(line)
        if self.spec.cache is not None:
            accesses = m.cache_hits + m.cache_misses
            ratio = m.cache_hits / accesses if accesses else 0.0
            lines.append(
                f"cache     : hits {m.cache_hits}, misses "
                f"{m.cache_misses}, evictions {m.cache_evictions}, "
                f"hit ratio {ratio:.3f}"
            )
        hot = sorted(
            m.requests_by_file.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
        lines.append(
            "top files : "
            + ", ".join(f"{name}={count}" for name, count in hot)
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able record (latency stats null when nothing completed)."""

        def finite(value: float) -> float | None:
            return value if math.isfinite(value) else None

        m = self.metrics
        latency = None
        if self.completions:
            latency = {
                "mean": finite(m.mean_latency),
                "p50": finite(m.quantile(0.50)),
                "p95": finite(m.quantile(0.95)),
                "p99": finite(m.quantile(0.99)),
                "worst": m.worst,
            }
        cache = None
        if self.spec.cache is not None:
            cache = {
                "hits": m.cache_hits,
                "misses": m.cache_misses,
                "evictions": m.cache_evictions,
            }
        temporal = None
        if self.temporal or m.item_reads:
            # An all-abort temporal run still reports its block: torn
            # discards are the diagnostic there, and consistency is
            # null ("undefined"), not 1.0, when nothing ever completed.
            temporal = {
                "item_reads": m.item_reads,
                "stale_reads": m.stale_reads,
                "consistency_rate": (
                    m.consistency_rate if m.item_reads else None
                ),
                "torn_discards": m.torn_discards,
                "age": (
                    {
                        "mean": finite(m.mean_age),
                        "p50": finite(m.age_quantile(0.50)),
                        "p95": finite(m.age_quantile(0.95)),
                        "p99": finite(m.age_quantile(0.99)),
                        "worst": m.worst_age,
                    }
                    if m.item_reads
                    else None
                ),
            }
        channels = None
        if self.channels:
            channels = {
                "switches": m.channel_switches,
                "quorum": (
                    {
                        "reads": dict(sorted(m.quorum_reads.items())),
                        "success_rate": m.quorum_success_rate,
                        "latency": (
                            {
                                "mean": finite(m.mean_quorum_latency),
                                "p50": finite(m.quorum_quantile(0.50)),
                                "p95": finite(m.quorum_quantile(0.95)),
                                "p99": finite(m.quorum_quantile(0.99)),
                                "worst": m.worst_quorum_latency,
                            }
                            if m.quorum_ok
                            else None
                        ),
                    }
                    if m.quorum_total
                    else None
                ),
            }
        return {
            "spec": self.spec.to_dict(),
            "requests": self.requests,
            "completions": self.completions,
            "aborts": self.aborts,
            "deadline_misses": self.deadline_misses,
            "abort_rate": self.abort_rate,
            "miss_rate": self.miss_rate,
            "deadline_miss_rate": m.deadline_miss_rate,
            "requests_per_sec": round(self.requests_per_sec, 1),
            "workers": self.workers,
            "latency": latency,
            "cache": cache,
            "temporal": temporal,
            "channels": channels,
            "requests_by_file": dict(
                sorted(m.requests_by_file.items())
            ),
        }


def simulate_traffic(
    program: BroadcastProgram | None,
    catalogue: Sequence[str],
    spec: TrafficSpec,
    *,
    file_sizes: Mapping[str, int],
    deadlines: Mapping[str, int],
    faults: Any = None,
    temporal: TemporalSpec | None = None,
    channels: ChannelSet | None = None,
    max_workers: int | None = None,
    trace: bool = False,
    engine: str = "soa",
) -> TrafficResult:
    """Run an open-loop client population against a broadcast program.

    Parameters
    ----------
    program:
        The server's broadcast program.
    catalogue:
        File names ordered hottest-first (popularity laws weight by
        position).
    spec:
        The population specification.
    file_sizes:
        Blocks needed per file (``m_i``).
    deadlines:
        Per-file deadline in slots (a completion later than this counts
        as a deadline miss).
    faults:
        Channel fault model: a :class:`~repro.sim.faults.FaultModel`
        instance, a declarative spec with a ``build()`` method (e.g.
        :class:`repro.api.FaultSpec`), or ``None`` for the failure-free
        channel.  Parallel shards each build their own instance -
        decisions are deterministic per ``(seed, slot)``, so all shards
        observe the same channel.
    temporal:
        Optional :class:`~repro.rtdb.TemporalSpec`.  When given, the
        population's requests draw read transactions from the spec's mix
        (or single-item reads without one), items are retrieved
        version-consistently against the spec's update clocks, and the
        metrics gain the staleness dimension (ages, consistency rate,
        torn discards).  Client caches are rejected here - a cached
        copy would go stale.
    channels:
        Optional :class:`~repro.bdisk.multichannel.ChannelSet`.  When
        given, ``program`` is ignored (pass ``None``) and every
        retrieval runs the multi-channel protocol: clients sign on
        tuned to channel 0, pick the earliest-finishing assigned
        channel per request (re-tunes cost
        :attr:`~repro.bdisk.multichannel.ChannelSet.tuning_cost`
        slots), and temporal populations assemble
        :attr:`~repro.bdisk.multichannel.ChannelSet.quorum`
        version-matching copies per item.  ``faults`` must then be a
        declarative spec (per-channel models derive via
        ``for_channel``), a per-channel sequence, or ``None`` - one
        shared model instance cannot serve ``k`` channels.  Client
        caches are rejected (a cached copy would bypass the tuning
        model).
    max_workers:
        ``None`` or ``1`` simulates in-process; a larger value shards
        the population across a process pool.  Results are bit-identical
        either way.
    trace:
        Retain one :class:`RequestRecord` per request (sorted by issue
        slot, then client).  Off by default - tracing defeats the
        constant-memory metrics path.
    engine:
        ``"soa"`` (default) runs the vectorized structure-of-arrays
        engine (:mod:`repro.traffic.engine_soa`); ``"object"`` runs
        one plain loop per client, each request one scalar-walker
        call - the executable spec the SoA engine is checked against.
        Metrics and traces are bit-identical between the two - the
        engine is purely a performance choice.  Pooled non-temporal
        ``"soa"`` runs build the retrieval tables once in the parent
        and ship them pickled with each shard, so workers never build
        an occurrence index.
    """
    catalogue = tuple(catalogue)
    _check_engine(engine)
    _validate_channels(channels, spec)
    if channels is None and program is None:
        raise SpecificationError(
            "simulate_traffic needs a program or a channel set"
        )
    _validate_population(program, catalogue, file_sizes, deadlines, channels)
    if temporal is not None:
        _validate_temporal(temporal, spec, catalogue)
    if max_workers is not None:
        check_int(max_workers, "max_workers", minimum=1)
    sizes = {file: file_sizes[file] for file in catalogue}
    limits = {file: deadlines[file] for file in catalogue}
    # Build the shared occurrence tables once, up front.
    if channels is not None:
        for channel_program in channels.programs:
            channel_program.index
    else:
        program.index

    workers = 1
    if max_workers is not None:
        workers = min(max_workers, spec.clients)
    # Resolved before the pool forks: workers inherit the engine module
    # instead of importing it per shard.
    runner = _shard_runner(engine)
    tel = obs.current()
    begin = time.perf_counter()
    shard_state: dict[str, Any] = {"channels": channels}
    if engine == "soa" and temporal is None:
        # A non-temporal vectorized shard retrieves from flat int64
        # tables alone: build them once here and hand them to every
        # shard (pickled, for pooled runs) in place of the program.
        from repro.traffic.cohorts import MultiChannelTables, RetrievalTables

        if channels is None:
            shard_state = {
                "tables": RetrievalTables.build(
                    program, catalogue, sizes, spec.max_slots
                )
            }
        else:
            shard_state = {
                "mc_tables": MultiChannelTables.build(
                    channels, catalogue, sizes, spec.max_slots
                )
            }
        program = None
    if workers == 1:
        parts = [
            runner(
                program, catalogue, spec, sizes, limits, faults, temporal,
                0, spec.clients, trace, **shard_state,
            )
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    obs.call_captured, tel is not None, _pool_shard_task,
                    engine, program, catalogue, spec, sizes, limits,
                    faults, temporal, lo, hi, trace, shard_state,
                )
                for lo, hi in shard_bounds(spec.clients, workers)
            ]
            # Collected in submission order: shard position is bound at
            # submit time, so merge order is deterministic.
            pooled = [future.result() for future in futures]
        # Worker telemetry rides back on the shard results and merges
        # exactly, in the same deterministic submission order.
        parts = []
        for part, part_tel in pooled:
            if tel is not None and part_tel is not None:
                tel.merge_dict(part_tel)
            parts.append(part)
    metrics = TrafficMetrics.merged(
        [part_metrics for part_metrics, _ in parts]
    )
    elapsed = time.perf_counter() - begin
    if tel is not None:
        tel.record_span(
            "traffic.simulate", elapsed,
            engine=engine, clients=spec.clients, workers=workers,
        )
        if elapsed > 0:
            tel.gauge(
                "traffic.requests_per_sec",
                metrics.requests / elapsed,
                engine=engine,
            )
    records: tuple[RequestRecord, ...] = ()
    if trace:
        records = tuple(
            sorted(
                (record for _, shard_records in parts
                 for record in shard_records),
                key=lambda r: (r.issued, r.client),
            )
        )
    return TrafficResult(
        spec=spec,
        metrics=metrics,
        elapsed=elapsed,
        workers=workers,
        temporal=temporal is not None,
        trace=records,
        channels=channels is not None,
    )
