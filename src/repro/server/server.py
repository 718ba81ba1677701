"""The online broadcast server: live re-scheduling on one channel or a set.

:class:`BroadcastServer` owns the airing programs for a
:class:`~repro.api.Scenario` and keeps them mutable *while on air* -
the paper's AWACS station switching from surveillance to combat mode
without going dark.  A single channel is a channel set of one: the
server keeps one :class:`~repro.server.airing.AirSchedule` per channel,
and every mutation takes the same path whatever their number.  The
lifecycle of one accepted mutation:

1. the mutation's delta produces the successor scenario (every
   constructor invariant re-validates eagerly);
2. the successor re-solves through the shared
   :class:`~repro.sweep.cache.SolveCache` - an unchanged design
   fingerprint is a warm-start cache hit, and the hit/miss provenance
   goes into the as-run log;
3. :func:`~repro.server.splice.find_splice_slot` scans each channel's
   outgoing data-cycle boundaries for the earliest one the
   splice-safety predicate blesses, and once every channel has one the
   new programs are committed there together (never before the next
   slot - the past is immutable);
4. every in-flight client retrieval whose provisional finish lies at or
   beyond the boundary is re-walked over the spliced timeline; a
   retrieval that met its contract and no longer does is a *splice
   violation* (zero, by the predicate, on fault-free channels);
5. the as-run log records the mutation, each channel's splice point
   with a planned-vs-aired divergence witness, and any violations.

Traffic populations run *through* a single-channel server - the same
arrival processes, RNG substreams, and single-receiver discipline as
the offline client loop - one record per client, served one client at
a time up to the slot :meth:`BroadcastServer.advance` names.  Clients are
independent, and the timeline changes only inside
:meth:`BroadcastServer.apply`, at a boundary after ``now``, so no
global event order is needed: a read's outcome is provisional until
its finish slot is served, a splice re-walks the reads it reaches, and
metrics land at the finish in the epoch the finish falls in (split
exactly at splice slots).

Drive it programmatically (``apply()`` / ``advance()`` / ``close()``)
or from a scripted mutation timeline (:mod:`repro.server.script`, the
``repro server`` CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Any, Sequence

from repro.errors import SpecificationError
from repro.fields import check_int
from repro.obs import telemetry as obs
from repro.rtdb.transactions import ReadTransaction
from repro.bdisk.builder import ProgramDesign
from repro.bdisk.multichannel import MultiChannelDesign
from repro.api.engine import BroadcastEngine
from repro.api.scenario import Scenario
from repro.sweep.cache import SolveCache
from repro.traffic.arrivals import (
    arrival_rng,
    arrival_slot,
    client_rng,
    popularity_weights,
    think_slots,
)
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.simulate import (
    _popularity,
    _temporal_mix,
    _validate_temporal,
)
from repro.sim.faults import FaultModel
from repro.sim.workload import sample_accesses
from repro.server.airing import AirSchedule, Segment, SplicedRetrieval
from repro.server.asrun import ASRUN_WINDOW, AsRunLog, planned_vs_aired
from repro.server.mutations import Mutation
from repro.server.splice import SpliceRequirement, find_splice_slot


def _mode_of(scenario: Scenario) -> str | None:
    """The scenario's active operation mode, however it is expressed."""
    if scenario.temporal is not None:
        return scenario.temporal.mode
    return scenario.mode


def successor(scenario: Scenario, mutation: Mutation) -> Scenario:
    """The scenario ``mutation`` turns the airing ``scenario`` into.

    The spec-level step of :meth:`BroadcastServer.apply`: the
    mutation's own delta, then the server's rule that the channel count
    is fixed at sign-on.  Raises
    :class:`~repro.errors.SpecificationError` when the mutation cannot
    apply; nothing is designed or aired.
    """
    after = mutation.apply(scenario)
    before_channels, after_channels = scenario.channels, after.channels
    if (before_channels is None) != (after_channels is None) or (
        before_channels is not None
        and after_channels.count != before_channels.count
    ):
        raise SpecificationError(
            f"mutation {mutation.describe()!r}: the channel count is "
            f"fixed at sign-on "
            f"({1 if before_channels is None else before_channels.count}"
            f" channel(s)); re-plan the channel topology offline and "
            f"sign on again"
        )
    return after


def _metrics_dict(metrics: TrafficMetrics) -> dict[str, Any]:
    """The headline counters of one epoch's accumulator, JSON-ably."""
    payload: dict[str, Any] = {
        "requests": metrics.requests,
        "completions": metrics.completions,
        "aborts": metrics.aborts,
        "deadline_misses": metrics.deadline_misses,
        "mean_latency": metrics.mean_latency,
        "worst_latency": metrics.worst,
    }
    if metrics.item_reads or metrics.torn_discards:
        payload.update(
            item_reads=metrics.item_reads,
            stale_reads=metrics.stale_reads,
            torn_discards=metrics.torn_discards,
            mean_age=metrics.mean_age,
        )
    return payload


class _Epoch:
    """One scenario's tenure: its design, derived tables, and metrics.

    A single design airs one program and a channel set one per channel.
    Every mutation splices one segment into each channel's timeline
    (each at that channel's earliest safe boundary), so epoch ``i``
    aired segment ``i`` of every timeline.
    """

    __slots__ = (
        "index",
        "scenario",
        "cache_hit",
        "fingerprint",
        "programs",
        "method",
        "channels",
        "catalogue",
        "file_sizes",
        "update_periods",
        "deadlines",
        "cum_weights",
        "mix",
        "mix_cum_weights",
        "max_age",
        "metrics",
    )

    def __init__(
        self,
        index: int,
        scenario: Scenario,
        design: ProgramDesign | MultiChannelDesign,
        cache_hit: bool,
    ) -> None:
        self.index = index
        self.scenario = scenario
        self.cache_hit = cache_hit
        self.fingerprint = scenario.design_fingerprint()
        # ``channels`` is what a channel set adds to its records.
        self.channels: dict[str, int] = {}
        if isinstance(design, MultiChannelDesign):
            self.programs = design.channel_set.programs
            self.method = design.designs[0].report.method
            self.channels = {"channels": design.count}
        else:
            self.programs = (design.program,)
            self.method = design.report.method
        self.catalogue = tuple(spec.name for spec in scenario.files)
        self.file_sizes = {
            spec.name: spec.blocks for spec in scenario.files
        }
        temporal = scenario.temporal
        self.update_periods = (
            None if temporal is None else dict(temporal.update_periods)
        )
        engine = BroadcastEngine(scenario, design=design)
        self.deadlines = engine._deadlines(design)
        self.cum_weights: list[float] | None = None
        self.mix: list[ReadTransaction] | None = None
        self.mix_cum_weights: list[float] | None = None
        self.max_age: dict[str, int] | None = None
        spec = scenario.traffic
        self.metrics = TrafficMetrics()
        if temporal is not None:
            self.max_age = temporal.max_age_slots()
        if spec is None:
            return
        weights = _popularity(popularity_weights, spec, len(self.catalogue))
        if temporal is not None:
            _validate_temporal(temporal, spec, self.catalogue)
            mix, mix_weights = _temporal_mix(
                temporal, self.catalogue, self.deadlines, weights
            )
            self.mix = mix
            self.mix_cum_weights = list(accumulate(mix_weights))
        else:
            self.cum_weights = list(accumulate(weights))

    def summary(self, schedules: Sequence[AirSchedule]) -> dict[str, Any]:
        """The epoch's as-run/result record, read from the server's
        timelines (this epoch aired segment :attr:`index` of each)."""
        segments = [schedule.segments[self.index] for schedule in schedules]
        payload = {
            "epoch": self.index,
            "start_slot": segments[0].start,
            "scenario": self.scenario.name,
            "mode": _mode_of(self.scenario),
            "fingerprint": self.fingerprint,
            "label": segments[0].label,
            "cache_hit": self.cache_hit,
            "method": self.method,
            "data_cycle": self.programs[0].data_cycle_length,
            "metrics": _metrics_dict(self.metrics),
        }
        if self.channels:
            payload.update(
                self.channels, start_slots=[s.start for s in segments]
            )
        return payload


class _Client:
    """One live client: its RNG, requests left, and what it is doing.

    With ``read`` in flight (walked from ``start`` for the request or
    transaction issued at ``issued``; ``txn`` and ``item`` name a
    transaction's item) the next event is ``read``'s finish; otherwise
    it is the issue at ``due``.
    """

    __slots__ = (
        "rng", "left", "due", "issued", "start", "think", "read", "txn",
        "item",
    )

    def __init__(self, rng: Any, requests: int, arrival: int) -> None:
        self.rng = rng
        self.left = requests
        self.due = arrival
        self.issued = arrival
        self.start = arrival
        self.think = 0
        self.read: SplicedRetrieval | None = None
        self.txn: ReadTransaction | None = None
        self.item = 0


def _kept(read: SplicedRetrieval, budget: int, versioned: bool) -> bool:
    """Whether ``read`` met its contract: a plain read finished within
    ``budget`` slots, a versioned one no older than ``budget``."""
    value = read.age_at_completion if versioned else read.latency
    return value is not None and value <= budget


@dataclass(frozen=True)
class ServerResult:
    """The structured outcome of one online server run."""

    scenario: str
    final_slot: int
    events_processed: int
    epochs: tuple[dict[str, Any], ...]
    mutations: tuple[dict[str, Any], ...]
    splice_slots: tuple[int, ...]
    violations: tuple[dict[str, Any], ...]
    resplices: int
    cache_stats: dict[str, int]
    asrun_path: str | None
    metrics: TrafficMetrics | None = field(compare=False, default=None)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able summary (the CLI's ``--json`` payload)."""
        payload: dict[str, Any] = {
            "scenario": self.scenario,
            "final_slot": self.final_slot,
            "events_processed": self.events_processed,
            "epochs": list(self.epochs),
            "mutations": list(self.mutations),
            "splice_slots": list(self.splice_slots),
            "violations": list(self.violations),
            "resplices": self.resplices,
            "cache": dict(self.cache_stats),
            "asrun": self.asrun_path,
        }
        if self.metrics is not None:
            payload["traffic"] = _metrics_dict(self.metrics)
        return payload

    def report(self) -> str:
        """A human-readable multi-line summary."""
        lines = [
            f"online server run: scenario {self.scenario}",
            f"  slots aired: {self.final_slot + 1}, events "
            f"{self.events_processed}",
            f"  mutations applied: {len(self.mutations)}, splices at "
            f"{list(self.splice_slots)}",
            f"  in-flight retrievals re-walked: {self.resplices}, "
            f"splice violations: {len(self.violations)}",
            f"  solve cache: {self.cache_stats['hits']} hits / "
            f"{self.cache_stats['misses']} misses / "
            f"{self.cache_stats['solves']} solves",
        ]
        for epoch in self.epochs:
            metrics = epoch["metrics"]
            hit = "cache hit" if epoch["cache_hit"] else "solved"
            lines.append(
                f"  epoch {epoch['epoch']} from slot "
                f"{epoch['start_slot']} ({epoch['label'] or 'sign-on'}, "
                f"{hit}): {metrics['requests']} requests, "
                f"{metrics['aborts']} aborts, "
                f"{metrics['deadline_misses']} deadline misses"
            )
        if self.asrun_path:
            lines.append(f"  as-run log: {self.asrun_path}")
        return "\n".join(lines)


class BroadcastServer:
    """A long-running broadcast station accepting runtime mutations.

    Parameters
    ----------
    scenario:
        The initial airing scenario.  A traffic population, when
        present, runs live through the server (no client caches - a
        cache would answer across a splice from a retired program).
    cache:
        The shared :class:`~repro.sweep.cache.SolveCache`; defaults to
        a fresh in-memory cache.  Passing a warm one makes mutation
        re-solves warm starts across server runs.
    log_path:
        Where to stream the JSONL as-run log (``None`` = in memory
        only; the records are always kept on the instance).
    window:
        Slots of planned-vs-aired context logged around each splice.
    max_boundaries:
        Data-cycle boundaries scanned for a safe splice before the
        mutation is refused.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        cache: SolveCache | None = None,
        log_path: str | Path | None = None,
        window: int = ASRUN_WINDOW,
        max_boundaries: int = 64,
    ) -> None:
        check_int(max_boundaries, "max_boundaries", minimum=1)
        if scenario.traffic is not None and scenario.traffic.cache:
            raise SpecificationError(
                f"scenario {scenario.name!r}: client caches are not "
                f"supported by the online server (a cached copy would "
                f"answer from a retired program across a splice)"
            )
        if scenario.channels is not None and scenario.traffic is not None:
            raise SpecificationError(
                f"scenario {scenario.name!r}: live traffic populations "
                f"are not supported over a channel set yet - run the "
                f"population offline (repro.traffic) or drop the "
                f"channels block; the online server airs and splices "
                f"every channel but drives sessions on one"
            )
        self._cache = cache if cache is not None else SolveCache()
        self._log = AsRunLog(log_path)
        self._window = window
        self._max_boundaries = max_boundaries
        self._fault_model: FaultModel = scenario.faults.build()
        self._now = 0
        self._events = 0
        self._mutations: list[dict[str, Any]] = []
        self._violations: list[dict[str, Any]] = []
        self._resplices = 0
        self._closed = False

        epoch = _Epoch(0, scenario, *self._cache.design_for(scenario))
        self._epochs: list[_Epoch] = [epoch]
        self._schedules: list[AirSchedule] = [
            AirSchedule([
                Segment(
                    start=0,
                    program=program,
                    fingerprint=epoch.fingerprint,
                    update_periods=epoch.update_periods,
                    dispersal=epoch.file_sizes,
                    label="sign-on",
                )
            ])
            for program in epoch.programs
        ]
        self._log.record(
            "on-air",
            0,
            scenario=scenario.name,
            mode=_mode_of(scenario),
            fingerprint=epoch.fingerprint,
            cache_hit=epoch.cache_hit,
            method=epoch.method,
            data_cycle=epoch.programs[0].data_cycle_length,
            **epoch.channels,
        )
        spec = scenario.traffic
        self._think_mean = 0 if spec is None else spec.think_time
        self._clients = [] if spec is None else [
            _Client(
                client_rng(spec.seed, index),
                spec.requests_per_client,
                arrival_slot(
                    spec.arrival,
                    arrival_rng(spec.seed, index),
                    index,
                    spec.clients,
                    spec.duration,
                    bursts=spec.bursts,
                    burst_width=spec.burst_width,
                ),
            )
            for index in range(spec.clients)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schedule(self) -> AirSchedule:
        """Channel 0's committed airing timeline: the one live clients
        walk, and the only one of a single-channel server."""
        return self._schedules[0]

    @property
    def schedules(self) -> tuple[AirSchedule, ...]:
        """Every channel's committed airing timeline (length 1 single)."""
        return tuple(self._schedules)

    @property
    def cache(self) -> SolveCache:
        """The solve cache mutations re-solve through."""
        return self._cache

    @property
    def log(self) -> AsRunLog:
        """The as-run log."""
        return self._log

    @property
    def now(self) -> int:
        """The slot served up to: the latest ``until`` :meth:`advance`
        was given, or the last event of a run that served every
        client."""
        return self._now

    @property
    def scenario(self) -> Scenario:
        """The scenario whose program is committed last."""
        return self._epochs[-1].scenario

    @property
    def violations(self) -> tuple[dict[str, Any], ...]:
        """Splice violations observed so far."""
        return tuple(self._violations)

    def _epoch_at(self, slot: int) -> _Epoch:
        return self._epochs[self._schedules[0].epoch_of(slot)]

    # ------------------------------------------------------------------
    # Live clients
    # ------------------------------------------------------------------

    def live_retrieve(self, file: str, start: int) -> SplicedRetrieval:
        """Walk one distinct-block retrieval over the live timeline."""
        epoch = self._epoch_at(start)
        spec = epoch.scenario.traffic
        return self._schedules[0].retrieve(
            file,
            epoch.file_sizes[file],
            start=start,
            faults=self._fault_model,
            max_slots=None if spec is None else spec.max_slots,
        )

    def live_retrieve_versioned(
        self, file: str, start: int
    ) -> SplicedRetrieval:
        """Walk one version-consistent retrieval over the live timeline."""
        epoch = self._epoch_at(start)
        spec = epoch.scenario.traffic
        return self._schedules[0].retrieve_versioned(
            file,
            epoch.file_sizes[file],
            start=start,
            faults=self._fault_model,
            max_slots=None if spec is None else spec.max_slots,
        )

    def _walk(
        self, client: _Client, file: str, start: int
    ) -> SplicedRetrieval:
        """Walk ``client``'s read of ``file`` from ``start``: versioned
        inside a transaction, plain otherwise."""
        if client.txn is None:
            return self.live_retrieve(file, start)
        return self.live_retrieve_versioned(file, start)

    def _budget(self, client: _Client, file: str) -> int:
        """The contract of ``client``'s read of ``file``, from the epoch
        it issued in: a staleness budget inside a transaction, a
        deadline otherwise."""
        epoch = self._epoch_at(client.issued)
        if client.txn is None:
            return epoch.deadlines[file]
        assert epoch.max_age is not None
        return epoch.max_age[file]

    def _serve(self, client: _Client, until: float) -> int:
        """Run ``client``'s events at slots up to ``until``; count them.

        An issue draws the file (or transaction) from the epoch airing
        then, and then the think time, and walks the live timeline from
        the client's clock.  A finish records the read into the epoch it
        falls in, against the budget of the issue's epoch; a
        transaction's next item starts the slot after, and the client's
        next request issues at ``finish + 1 + think``.
        """
        ran = 0
        while True:
            read = client.read
            if read is None:
                now = client.due
                if not client.left or now > until:
                    return ran
                epoch = self._epoch_at(now)
                if epoch.mix is not None:
                    client.txn = epoch.mix[
                        sample_accesses(
                            client.rng, None, 1,
                            cum_weights=epoch.mix_cum_weights,
                        )[0]
                    ]
                    client.item = 0
                    file = client.txn.items[0]
                else:
                    file = epoch.catalogue[
                        sample_accesses(
                            client.rng, None, 1,
                            cum_weights=epoch.cum_weights,
                        )[0]
                    ]
                client.think = think_slots(client.rng, self._think_mean)
                client.issued = client.start = now
                client.read = self._walk(client, file, now)
                ran += 1
                continue
            finish = read.finish_slot
            if finish > until:
                return ran
            ran += 1
            self._now = max(self._now, finish)
            metrics = self._epoch_at(finish).metrics
            budget = self._budget(client, read.file)
            txn = client.txn
            if txn is None:
                metrics.record(read.file, read.latency, budget)
            else:
                metrics.record_versioned_read(
                    read.age_at_completion,
                    _kept(read, budget, True),
                    read.torn_discards,
                )
                client.item += 1
                if read.completed and client.item < len(txn.items):
                    client.start = finish + 1
                    client.read = self._walk(
                        client, txn.items[client.item], finish + 1
                    )
                    continue
                metrics.record(
                    txn.name,
                    finish - client.issued + 1 if read.completed else None,
                    txn.deadline_slots,
                )
                client.txn = None
            client.read = None
            client.left -= 1
            client.due = finish + 1 + client.think

    # ------------------------------------------------------------------
    # The mutation path
    # ------------------------------------------------------------------

    def _requirements(
        self, outgoing: _Epoch, carried: Sequence[str]
    ) -> list[SpliceRequirement]:
        """Splice-safety requirements for the files in ``carried``.

        ``carried`` is what one channel airs on both sides of the
        splice; the outgoing catalogue filter keeps only files the
        outgoing epoch also promised, in catalogue order.
        """
        versioned = outgoing.scenario.temporal is not None
        carried_set = set(carried)
        return [
            SpliceRequirement(
                file=file,
                m_needed=outgoing.file_sizes[file],
                budget_slots=outgoing.deadlines[file],
                versioned=versioned,
            )
            for file in outgoing.catalogue
            if file in carried_set
        ]

    def apply(self, mutation: Mutation) -> dict[str, Any]:
        """Accept one runtime mutation; return its provenance record.

        Re-solves, finds each channel's earliest safe data-cycle
        boundary strictly after ``now`` (the channels' cycles are not
        aligned, so the slots may differ), commits every channel's
        splice at once, re-walks affected in-flight retrievals, and
        logs everything.  Raises
        :class:`~repro.errors.SpecificationError` for a malformed delta
        and :class:`~repro.errors.SimulationError` when some channel has
        no safe boundary - in either case nothing was committed.
        """
        if self._closed:
            raise SpecificationError(
                "server is closed; no further mutations"
            )
        now = self._now
        outgoing = self._epochs[-1]
        scenario = successor(outgoing.scenario, mutation)
        with obs.span(
            "server.mutation", kind=type(mutation).__name__, at_slot=now
        ):
            # Snapshot/diff brackets make the per-mutation cache
            # accounting exact even though the SolveCache counters are
            # lifetime-monotonic across epochs.
            cache_before = self._cache.snapshot()
            with obs.span("server.mutation.resolve"):
                design, cache_hit = self._cache.design_for(scenario)
            cache_delta = self._cache.diff(cache_before)
            epoch = _Epoch(len(self._epochs), scenario, design, cache_hit)
            # A channel set labels its per-channel spans and records.
            tags = [
                {"channel": channel} for channel in range(len(epoch.programs))
            ] if epoch.channels else [{}]
            plans = []
            for channel, program in enumerate(epoch.programs):
                # A requirement is only checkable where both the outgoing
                # and the incoming channel carry the file; a file moving
                # between channels is a (clean) drop-and-reappear, not a
                # splice, exactly like a file leaving the catalogue.
                aired = outgoing.programs[channel].files
                checked = self._requirements(
                    outgoing, [file for file in program.files if file in aired]
                )
                with obs.span(
                    "server.mutation.splice_search", **tags[channel]
                ):
                    candidate, slot, attempts = find_splice_slot(
                        self._schedules[channel],
                        program,
                        not_before=now + 1,
                        requirements=checked,
                        fingerprint=epoch.fingerprint,
                        update_periods=epoch.update_periods,
                        dispersal=epoch.file_sizes,
                        label=mutation.describe(),
                        max_boundaries=self._max_boundaries,
                    )
                plans.append((candidate, slot, attempts, checked))

            with obs.span("server.mutation.splice_commit", **epoch.channels):
                # Commit: timelines first, then the epoch tables clients
                # read.
                self._schedules = [plan[0] for plan in plans]
                self._epochs.append(epoch)
                self._log.record(
                    "mutation",
                    now,
                    mutation=mutation.to_dict(),
                    scenario=scenario.name,
                    mode=_mode_of(scenario),
                    fingerprint=epoch.fingerprint,
                    cache_hit=cache_hit,
                    cache_delta=cache_delta,
                    method=epoch.method,
                    **epoch.channels,
                )
                for tag, (candidate, slot, attempts, checked) in zip(
                    tags, plans
                ):
                    self._log.record(
                        "splice",
                        slot,
                        **tag,
                        outgoing_fingerprint=outgoing.fingerprint,
                        incoming_fingerprint=epoch.fingerprint,
                        phase_offset=candidate.on_air.phase_offset,
                        rejected_boundaries=[
                            {
                                "slot": at,
                                "violations": [v.to_dict() for v in found],
                            }
                            for at, found in attempts
                        ],
                        checked_files=sorted(r.file for r in checked),
                        window=planned_vs_aired(
                            candidate, slot, self._window
                        ),
                    )
                    self._log.record(
                        "on-air",
                        slot,
                        **tag,
                        scenario=scenario.name,
                        mode=_mode_of(scenario),
                        fingerprint=epoch.fingerprint,
                        cache_hit=cache_hit,
                        method=epoch.method,
                        data_cycle=(
                            candidate.on_air.program.data_cycle_length
                        ),
                    )
                    if tag:
                        obs.inc("server.channel.splices", **tag)
                slots = [plan[1] for plan in plans]
                respliced, violations = self._rewalk(slots[0])

            rejected = [[at for at, _ in plan[2]] for plan in plans]
            obs.inc("server.mutations")
            obs.inc("server.resplices", respliced)
            obs.inc("server.splice_violations", len(violations))
            obs.inc("server.rejected_boundaries", sum(map(len, rejected)))

            record: dict[str, Any] = {
                "at_slot": now,
                "mutation": mutation.to_dict(),
                "splice_slot": slots[0],
                "channel_splice_slots": slots,
                "phase_offset": plans[0][0].on_air.phase_offset,
                "fingerprint": epoch.fingerprint,
                "cache_hit": cache_hit,
                "cache_delta": cache_delta,
                "method": epoch.method,
                "rejected_boundaries": rejected,
                "respliced": respliced,
                "violations": violations,
            }
            if not epoch.channels:
                # One channel's record names its one splice directly.
                del record["channel_splice_slots"]
                record["rejected_boundaries"] = rejected[0]
            self._mutations.append(record)
            return record

    def _rewalk(self, splice_slot: int) -> tuple[int, list[dict[str, Any]]]:
        """Re-walk every in-flight read that reaches ``splice_slot`` over
        the spliced timeline; return how many, and the violations found
        (reads that met their contract and no longer do), each logged.

        Only a single-channel server has live clients, so on a channel
        set this re-walks nothing.
        """
        respliced = 0
        violations: list[dict[str, Any]] = []
        for client in self._clients:
            read = client.read
            if read is None or read.finish_slot < splice_slot:
                continue  # idle, or finishes before the boundary
            versioned = client.txn is not None
            budget = self._budget(client, read.file)
            moved = client.read = self._walk(
                client, read.file, client.start
            )
            respliced += 1
            if _kept(read, budget, versioned) and not _kept(
                moved, budget, versioned
            ):
                entry = {
                    "splice_slot": splice_slot,
                    "file": read.file,
                    "start": client.start,
                    "budget_slots": budget,
                    "old_latency": read.latency,
                    "new_latency": moved.latency,
                }
                violations.append(entry)
                self._violations.append(entry)
                self._log.record("violation", splice_slot, **entry)
        self._resplices += respliced
        return respliced, violations

    def advance(self, *, until: int | None = None) -> int:
        """Serve every client up to slot ``until``; count the events.

        An event is a request issue or a read's finish (one per
        transaction item).  ``None`` serves every client to its last
        request.  Raises :class:`~repro.errors.SpecificationError` once
        the server is closed.
        """
        if self._closed:
            raise SpecificationError("server is closed; nothing more airs")
        if until is not None:
            check_int(until, "until", minimum=0)
        bound = math.inf if until is None else until
        ran = sum(self._serve(client, bound) for client in self._clients)
        self._events += ran
        if until is not None:
            self._now = max(self._now, until)
        return ran

    def close(self) -> ServerResult:
        """Sign off: final log record, close the log, summarize.

        The station airs through its last committed splice before it
        signs off, so every epoch it reports went on air: the sign-off
        (and ``final_slot``) is the later of :attr:`now` and the last
        splice slot on any channel.  No client is served past ``now``
        while the splices drain.
        """
        if self._closed:
            raise SpecificationError("server is already closed")
        self._closed = True
        metrics: TrafficMetrics | None = None
        if self._epochs[0].scenario.traffic is not None:
            metrics = TrafficMetrics.merged(
                [epoch.metrics for epoch in self._epochs]
            )
        splice_slots = tuple(
            sorted(
                {
                    slot
                    for schedule in self._schedules
                    for slot in schedule.splice_slots
                }
            )
        )
        sign_off = max([self._now, *splice_slots])
        self._log.record(
            "sign-off",
            sign_off,
            epochs=len(self._epochs),
            mutations=len(self._mutations),
            splices=list(splice_slots),
            violations=len(self._violations),
            resplices=self._resplices,
            cache=self._cache.stats(),
        )
        self._log.close()
        return ServerResult(
            scenario=self._epochs[0].scenario.name,
            final_slot=sign_off,
            events_processed=self._events,
            epochs=tuple(
                epoch.summary(self._schedules) for epoch in self._epochs
            ),
            mutations=tuple(self._mutations),
            splice_slots=splice_slots,
            violations=tuple(self._violations),
            resplices=self._resplices,
            cache_stats=self._cache.stats(),
            asrun_path=(
                None if self._log.path is None else str(self._log.path)
            ),
            metrics=metrics,
        )

    def __repr__(self) -> str:
        return (
            f"BroadcastServer(scenario={self._epochs[-1].scenario.name!r}, "
            f"now={self._now}, epochs={len(self._epochs)}, "
            f"inflight={sum(c.read is not None for c in self._clients)})"
        )
