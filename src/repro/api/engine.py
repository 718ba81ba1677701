"""The one-call facade: run a :class:`Scenario` end to end.

``BroadcastEngine(scenario).run()`` walks the whole paper pipeline -

1. **design**: plan bandwidth and schedule the induced pinwheel system
   (regular files, Section 3.2) or transform-and-schedule the nice
   conjunct (generalized files, Section 4), honouring the scenario's
   scheduler policy;
2. **program**: summarize the verified broadcast program;
3. **simulation**: when a workload is specified, replay a seeded request
   stream against the program through the scenario's fault model;
4. **traffic**: when an open-loop population is specified, run the
   discrete-event traffic simulation (:mod:`repro.traffic`) against the
   program through the same fault model;
5. **delay analysis**: when requested, regenerate the exact worst-case
   delay table (Figure 7 style), read off each file's block rotation
   (:mod:`repro.sim.delay`) on the channel a client picks.

The outcome is a structured :class:`ScenarioResult`; :func:`run_scenarios`
maps the same pipeline over a batch for parameter sweeps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping

from repro.errors import SpecificationError
from repro.fields import check_int
from repro.memo import ScopedMemo
from repro.obs import telemetry as obs
from repro.core.solver import SolveReport
from repro.ida import AidaEncoder, Block, reconstruct
from repro.bdisk.builder import (
    ProgramDesign,
    design_generalized_program,
    design_program,
)
from repro.bdisk.multichannel import (
    MultiChannelDesign,
    design_multichannel_program,
)
from repro.bdisk.program import BroadcastProgram
from repro.sim.delay import chosen_channel_delay
from repro.sim.runner import (
    SimulationResult,
    simulate_requests,
    simulate_requests_multichannel,
)
from repro.sim.workload import request_stream
from repro.traffic.simulate import (
    TrafficResult,
    simulate_traffic,
    simulate_traffic_shard,
)
from repro.api.scenario import Scenario

#: The dispersals :meth:`BroadcastEngine.payload_checks` shares, keyed
#: by ``(file, payload, m, n_max)``.  A sweep opens it while it runs
#: cells (:func:`repro.memo.opened`), so the scope, not the bound, is
#: what keeps it from pinning payloads; outside that scope every check
#: disperses its own.
SHARED_DISPERSALS = ScopedMemo(4096)


def _dispersal(key: tuple[str, bytes, int, int]) -> tuple[Block, ...]:
    """The full AIDA dispersal of ``key``: file, payload, m, n_max."""
    file, payload, m, n_max = key
    return tuple(AidaEncoder(file, payload, m=m, n_max=n_max).blocks)


@dataclass(frozen=True)
class ProgramStats:
    """Headline numbers of a designed broadcast program.

    For a multi-channel design the headline fields describe channel 0
    (the bandwidths are harmonized, so the slot clock is set-wide) -
    except ``density``, which is the *worst* channel's, the figure that
    bounds feasibility - and ``channels`` holds one per-channel record
    (``None`` for single-channel designs).
    """

    bandwidth: int | None
    density: Fraction
    method: str
    attempts: tuple[tuple[str, str], ...]
    broadcast_period: int
    data_cycle_length: int
    block_counts: dict[str, int]
    channels: tuple[dict[str, Any], ...] | None = None

    def __str__(self) -> str:
        bandwidth = (
            f"{self.bandwidth} blocks/s" if self.bandwidth else "per-slot"
        )
        head = (
            f"bandwidth {bandwidth}, density {float(self.density):.4f}, "
            f"method {self.method}, period {self.broadcast_period} slots, "
            f"data cycle {self.data_cycle_length} slots"
        )
        if self.channels is not None:
            head += f", channels {len(self.channels)}"
        return head


@dataclass(frozen=True)
class DelayEntry:
    """Exact worst-case added delay for one file at one fault count."""

    file: str
    errors: int
    delay: int


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produced.

    Attributes
    ----------
    scenario:
        The input specification.
    design:
        The full :class:`ProgramDesign` (program, solve report, bandwidth
        plan or transform candidates).
    stats:
        Headline program numbers for quick inspection.
    simulation:
        The workload replay, or ``None`` when no workload was specified.
    traffic:
        The open-loop population run
        (:class:`repro.traffic.TrafficResult`), or ``None`` when the
        scenario specifies no traffic.
    delay_table:
        Worst-case delay entries, empty unless ``delay_errors`` was set.
    payload_checks:
        Per-file end-to-end AIDA integrity: each file's payload (at the
        scenario's ``block_size``) dispersed, retrieved through the fault
        channel, and reconstructed bit-for-bit.  ``None`` without a
        simulation; files whose retrievals never completed are absent.
    """

    scenario: Scenario
    design: ProgramDesign | MultiChannelDesign
    stats: ProgramStats
    simulation: SimulationResult | None
    delay_table: tuple[DelayEntry, ...]
    payload_checks: Mapping[str, bool] | None = None
    traffic: TrafficResult | None = None

    @property
    def multichannel(self) -> bool:
        """Whether the scenario designed a multi-channel set."""
        return isinstance(self.design, MultiChannelDesign)

    @property
    def channel_set(self):
        """The aired :class:`~repro.bdisk.multichannel.ChannelSet`, or
        ``None`` for single-channel designs."""
        if isinstance(self.design, MultiChannelDesign):
            return self.design.channel_set
        return None

    @property
    def program(self) -> BroadcastProgram:
        """The verified broadcast program (channel 0's for a
        multi-channel design - the harmonized slot clock's reference)."""
        if isinstance(self.design, MultiChannelDesign):
            return self.design.channel_set.programs[0]
        return self.design.program

    @property
    def report(self) -> SolveReport:
        """How the pinwheel system was scheduled (channel 0's report
        for a multi-channel design)."""
        if isinstance(self.design, MultiChannelDesign):
            return self.design.designs[0].report
        return self.design.report

    def summary(self) -> str:
        """A human-readable multi-line report (the CLI's output)."""
        lines = [f"scenario  : {self.scenario.name}", f"design    : {self.stats}"]
        lines.append(
            "attempts  : "
            + "; ".join(f"{n} -> {o}" for n, o in self.stats.attempts)
        )
        if self.stats.channels is not None:
            for entry in self.stats.channels:
                lines.append(
                    f"channel {entry['channel']} : "
                    f"{len(entry['files'])} file(s), "
                    f"density {entry['density']:.4f}, "
                    f"method {entry['method']}, "
                    f"cycle {entry['data_cycle_length']} slots"
                )
        if self.scenario.temporal is not None:
            lines.append(
                f"temporal  : {self.scenario.temporal.describe()}"
            )
        if self.simulation is not None:
            sim = self.simulation
            lines.append(
                f"workload  : {len(sim.requests)} requests, "
                f"latency {sim.summary}, "
                f"deadline miss rate {sim.deadline_miss_rate:.3f}"
            )
        if self.traffic is not None:
            for line in self.traffic.report().splitlines():
                lines.append(line)
        if self.payload_checks:
            verdicts = ", ".join(
                f"{name}={'intact' if ok else 'CORRUPT'}"
                for name, ok in sorted(self.payload_checks.items())
            )
            lines.append(f"payloads  : {verdicts}")
        if self.delay_table:
            lines.append("delay     : file errors worst-case-added-delay")
            for entry in self.delay_table:
                lines.append(
                    f"            {entry.file} {entry.errors} {entry.delay}"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able result record (for ``repro run --json`` and CI).

        Strict JSON rejects ``inf``/``nan``, but an all-miss run's
        summary is exactly that (unbounded delay), and dropping it
        silently would make the row indistinguishable from "not
        measured".  Non-finite latency statistics therefore serialize as
        ``null`` with the latency block's ``"bounded"`` flag set to
        ``false``, so sweeps keep their unbounded-delay rows through a
        JSON round trip.
        """

        def finite(value: float) -> float | None:
            return value if math.isfinite(value) else None

        simulation = None
        if self.simulation is not None:
            sim = self.simulation
            stats = {
                "mean": sim.summary.mean,
                "p50": sim.summary.p50,
                "p95": sim.summary.p95,
                "p99": sim.summary.p99,
                "worst": sim.summary.worst,
            }
            simulation = {
                "requests": len(sim.requests),
                "deadline_misses": sim.deadline_misses,
                "deadline_miss_rate": sim.deadline_miss_rate,
                "latency": {
                    **{key: finite(value) for key, value in stats.items()},
                    "bounded": all(
                        math.isfinite(value) for value in stats.values()
                    ),
                },
                "payload_checks": (
                    None
                    if self.payload_checks is None
                    else dict(self.payload_checks)
                ),
            }
        return {
            "scenario": self.scenario.to_dict(),
            "stats": {
                "bandwidth": self.stats.bandwidth,
                "density": float(self.stats.density),
                "method": self.stats.method,
                "attempts": [list(a) for a in self.stats.attempts],
                "broadcast_period": self.stats.broadcast_period,
                "data_cycle_length": self.stats.data_cycle_length,
                "block_counts": dict(self.stats.block_counts),
                "channels": (
                    None
                    if self.stats.channels is None
                    else [dict(entry) for entry in self.stats.channels]
                ),
            },
            "simulation": simulation,
            "traffic": (
                None if self.traffic is None else self.traffic.to_dict()
            ),
            "delay_table": [
                {"file": e.file, "errors": e.errors, "delay": e.delay}
                for e in self.delay_table
            ],
        }


class BroadcastEngine:
    """Facade running design -> program -> simulation for one scenario.

    The engine is cheap to construct and caches its design, so
    ``engine.design()`` followed by ``engine.run()`` designs once.

    ``design`` injects a precomputed :class:`ProgramDesign` instead of
    solving - the sweep orchestrator's solve-cache hands the same design
    to every scenario sharing a
    :meth:`~repro.api.Scenario.design_fingerprint`.  The caller owns the
    equivalence guarantee: inject only designs produced for a scenario
    with an equal fingerprint.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        design: ProgramDesign | MultiChannelDesign | None = None,
    ) -> None:
        if not isinstance(scenario, Scenario):
            raise SpecificationError(
                f"BroadcastEngine expects a Scenario, got "
                f"{type(scenario).__name__}"
            )
        if design is not None and not isinstance(
            design, (ProgramDesign, MultiChannelDesign)
        ):
            raise SpecificationError(
                f"BroadcastEngine expects a ProgramDesign or "
                f"MultiChannelDesign to inject, got "
                f"{type(design).__name__}"
            )
        if isinstance(design, MultiChannelDesign) != (
            design is not None and scenario.channels is not None
        ):
            raise SpecificationError(
                f"scenario {scenario.name!r} and the injected design "
                f"disagree about multi-channel operation"
            )
        self._scenario = scenario
        self._design: ProgramDesign | MultiChannelDesign | None = design

    @property
    def scenario(self) -> Scenario:
        """The scenario this engine runs."""
        return self._scenario

    def design(self) -> ProgramDesign | MultiChannelDesign:
        """Design the broadcast program (cached after the first call).

        Scenarios with ``channels`` get a
        :class:`~repro.bdisk.multichannel.MultiChannelDesign`; all
        others keep the classic single-channel :class:`ProgramDesign`.
        """
        if self._design is None:
            scenario = self._scenario
            policy = scenario.scheduler_policy
            if scenario.channels is not None:
                self._design = design_multichannel_program(
                    scenario.files
                    if scenario.generalized
                    else scenario.effective_files,
                    scenario.channels,
                    bandwidth=(
                        None
                        if scenario.generalized
                        else scenario.design_bandwidth
                    ),
                    policy=policy,
                )
            elif scenario.generalized:
                self._design = design_generalized_program(
                    scenario.files, policy=policy
                )
            else:
                # design_bandwidth is the same value design_payload
                # fingerprints, so cached designs always describe the
                # program built here (temporal scenarios pin it to 1).
                self._design = design_program(
                    scenario.effective_files,
                    bandwidth=scenario.design_bandwidth,
                    policy=policy,
                )
        return self._design

    def _channel_set(self, design: MultiChannelDesign):
        """The design's channel set under *this* scenario's runtime knobs.

        ``tuning_cost`` and ``quorum`` are runtime knobs excluded from
        the design fingerprint, so a cached design may carry another
        scenario's values - rebind them before anything client-facing
        consumes the set.
        """
        from dataclasses import replace as _replace

        spec = self._scenario.channels
        channel_set = design.channel_set
        if (
            channel_set.tuning_cost == spec.tuning_cost
            and channel_set.quorum == spec.quorum
        ):
            return channel_set
        return _replace(
            channel_set,
            tuning_cost=spec.tuning_cost,
            quorum=spec.quorum,
        )

    def _stats(
        self, design: ProgramDesign | MultiChannelDesign
    ) -> ProgramStats:
        if isinstance(design, MultiChannelDesign):
            return self._stats_multichannel(design)
        plan = design.bandwidth_plan
        program = design.program
        return ProgramStats(
            bandwidth=None if plan is None else plan.bandwidth,
            density=design.density,
            method=design.report.method,
            attempts=design.report.attempts,
            broadcast_period=program.broadcast_period,
            data_cycle_length=program.data_cycle_length,
            block_counts={
                spec.name: program.block_count(spec.name)
                for spec in self._scenario.files
            },
        )

    def _stats_multichannel(self, design: MultiChannelDesign) -> ProgramStats:
        channel_set = design.channel_set
        head = design.designs[0]
        plan = head.bandwidth_plan
        channels = tuple(
            {
                "channel": channel,
                "files": list(design.partition[channel]),
                "bandwidth": (
                    None
                    if d.bandwidth_plan is None
                    else d.bandwidth_plan.bandwidth
                ),
                "density": float(d.density),
                "utilization": float(d.density),
                "method": d.report.method,
                "broadcast_period": d.program.broadcast_period,
                "data_cycle_length": d.program.data_cycle_length,
            }
            for channel, d in enumerate(design.designs)
        )
        return ProgramStats(
            bandwidth=None if plan is None else plan.bandwidth,
            density=max(design.densities),
            method=head.report.method,
            attempts=head.report.attempts,
            broadcast_period=head.program.broadcast_period,
            data_cycle_length=head.program.data_cycle_length,
            block_counts={
                spec.name: channel_set.programs[
                    channel_set.channels_for(spec.name)[0]
                ].block_count(spec.name)
                for spec in self._scenario.files
            },
            channels=channels,
        )

    def simulate(self) -> SimulationResult | None:
        """Replay the scenario workload, or ``None`` without one."""
        scenario = self._scenario
        workload = scenario.workload
        if workload is None:
            return None
        design = self.design()
        multi = isinstance(design, MultiChannelDesign)
        head = design.designs[0] if multi else design
        rng = random.Random(workload.seed)
        if scenario.generalized:
            # Latencies are already in slots; each deadline is the file's
            # weakest promise d(r) - the latency the program guarantees
            # even at the full fault budget.
            requests = request_stream(
                rng,
                scenario.files,
                count=workload.requests,
                horizon=workload.horizon,
                zipf_skew=workload.zipf_skew,
                deadline=lambda spec: spec.latency_vector[-1],
            )
        else:
            requests = request_stream(
                rng,
                scenario.effective_files,
                count=workload.requests,
                horizon=workload.horizon,
                bandwidth=head.bandwidth_plan.bandwidth,
                zipf_skew=workload.zipf_skew,
            )
        file_sizes = {spec.name: spec.blocks for spec in scenario.files}
        if multi:
            channel_set = self._channel_set(design)
            return simulate_requests_multichannel(
                channel_set,
                requests,
                file_sizes=file_sizes,
                faults=[
                    scenario.faults.for_channel(channel).build()
                    for channel in range(channel_set.count)
                ],
            )
        return simulate_requests(
            design.program,
            requests,
            file_sizes=file_sizes,
            faults=scenario.faults.build(),
            need_distinct=True,
        )

    def _deadlines(
        self, design: ProgramDesign | MultiChannelDesign
    ) -> dict[str, int]:
        """Per-file deadlines in slots, matching the workload replay.

        Generalized files promise their weakest latency (the vector's
        last entry, already in slots); regular files promise their
        latency budget at the planned bandwidth (channel 0's plan for a
        multi-channel design - the plans are harmonized).
        """
        scenario = self._scenario
        if scenario.generalized:
            return {
                spec.name: spec.latency_vector[-1]
                for spec in scenario.files
            }
        head = (
            design.designs[0]
            if isinstance(design, MultiChannelDesign)
            else design
        )
        bandwidth = head.bandwidth_plan.bandwidth
        return {
            spec.name: spec.latency * bandwidth
            for spec in scenario.effective_files
        }

    def run_traffic(
        self,
        *,
        max_workers: int | None = None,
        trace: bool = False,
        engine: str = "soa",
    ) -> TrafficResult | None:
        """Run the scenario's open-loop population, or ``None`` without one.

        ``max_workers`` shards the population across a process pool
        (results are bit-identical to the serial run); ``trace`` retains
        one record per request for debugging and equivalence tests;
        ``engine`` selects the shard implementation (the vectorized
        ``"soa"`` by default, or the ``"object"`` spec - bit-identical
        metrics, see :data:`repro.traffic.ENGINES`).
        """
        scenario = self._scenario
        spec = scenario.traffic
        if spec is None:
            return None
        design = self.design()
        multi = isinstance(design, MultiChannelDesign)
        return simulate_traffic(
            None if multi else design.program,
            [file.name for file in scenario.files],
            spec,
            file_sizes={
                file.name: file.blocks for file in scenario.files
            },
            deadlines=self._deadlines(design),
            faults=scenario.faults,
            temporal=scenario.temporal,
            channels=self._channel_set(design) if multi else None,
            max_workers=max_workers,
            trace=trace,
            engine=engine,
        )

    def run_traffic_shard(self, lo: int, hi: int, *, engine: str = "soa"):
        """Run clients ``[lo, hi)`` of the scenario's traffic population.

        The shard-level entry point external pools submit (see
        :func:`repro.traffic.simulate.simulate_traffic_shard`); the
        sweep orchestrator interleaves these with other scenarios' cells
        on one shared pool.  Returns the shard's
        :class:`~repro.traffic.metrics.TrafficMetrics`; raises
        :class:`~repro.errors.SpecificationError` when the scenario has
        no traffic population.
        """
        scenario = self._scenario
        spec = scenario.traffic
        if spec is None:
            raise SpecificationError(
                f"scenario {scenario.name!r} has no traffic population "
                f"to shard"
            )
        design = self.design()
        multi = isinstance(design, MultiChannelDesign)
        return simulate_traffic_shard(
            None if multi else design.program,
            [file.name for file in scenario.files],
            spec,
            file_sizes={
                file.name: file.blocks for file in scenario.files
            },
            deadlines=self._deadlines(design),
            faults=scenario.faults,
            temporal=scenario.temporal,
            channels=self._channel_set(design) if multi else None,
            lo=lo,
            hi=hi,
            engine=engine,
        )

    def payload_checks(
        self, simulation: SimulationResult | None
    ) -> dict[str, bool] | None:
        """Per-file end-to-end AIDA byte integrity over the simulation.

        For each file with at least one completed retrieval: disperse its
        payload (at the scenario's ``block_size``) with AIDA, take the
        blocks that retrieval actually received over the fault channel,
        reconstruct, and compare bit-for-bit.

        The dispersal depends only on ``(file, payload, m, n_max)``,
        where ``n_max`` is the airing program's rotation width (for a
        channel set, that of the channel the retrieval tuned).  While a
        sweep runs cells, :data:`SHARED_DISPERSALS` holds one dispersal
        per such key for all of them.  The verdict is never memoized:
        every check reconstructs from its own received blocks and
        compares the bytes.
        """
        if simulation is None:
            return None
        scenario = self._scenario
        design = self.design()
        multi = isinstance(design, MultiChannelDesign)
        program = None if multi else design.program
        checks: dict[str, bool] = {}
        for spec in scenario.files:
            retrieval = next(
                (
                    r
                    for r in simulation.retrievals
                    if r.file == spec.name
                    and r.completed
                    and len(r.received) >= spec.blocks
                ),
                None,
            )
            if retrieval is None:
                continue
            payload = spec.payload(scenario.block_size)
            n_max = (
                design.channel_set.programs[retrieval.channel]
                if multi
                else program
            ).block_count(spec.name)
            dispersal = SHARED_DISPERSALS.lookup(
                (spec.name, payload, spec.blocks, n_max), _dispersal
            )
            blocks = [
                dispersal[index]
                for index in retrieval.received[: spec.blocks]
            ]
            checks[spec.name] = reconstruct(blocks) == payload
        return checks

    def delay_table(self) -> tuple[DelayEntry, ...]:
        """Exact worst-case delays up to the scenario's ``delay_errors``.

        A client of a channel set commits to the carrier it would
        finish on first without faults, hearing every carrier but its
        tuned one the scenario's ``tuning_cost`` slots late, so each
        entry is the worst case over one common period, and over the
        channel it is tuned to, of the channel it picks there; one
        channel is the single-channel worst case.
        """
        scenario = self._scenario
        if scenario.delay_errors is None:
            return ()
        design = self.design()
        channels = (
            design.channel_set
            if isinstance(design, MultiChannelDesign)
            else None
        )

        tuning_cost = (
            0 if channels is None else scenario.channels.tuning_cost
        )

        def carriers(file: str) -> tuple[BroadcastProgram, ...]:
            if channels is None:
                return (design.program,)
            return tuple(
                channels.programs[channel]
                for channel in channels.channels_for(file)
            )

        return tuple(
            DelayEntry(
                spec.name,
                errors,
                chosen_channel_delay(
                    carriers(spec.name), spec.name, spec.blocks, errors,
                    tuning_cost=tuning_cost,
                ),
            )
            for spec in scenario.files
            for errors in range(scenario.delay_errors + 1)
        )

    def run(self, *, include_traffic: bool = True) -> ScenarioResult:
        """Run the full pipeline and return a structured result.

        ``include_traffic=False`` skips the traffic phase (its
        ``traffic`` field comes back ``None`` even when the scenario has
        a population) - the sweep orchestrator runs traffic as separate
        shard tasks on its shared pool and merges them in afterwards.
        """
        design = self.design()
        simulation = self.simulate()
        return ScenarioResult(
            scenario=self._scenario,
            design=design,
            stats=self._stats(design),
            simulation=simulation,
            delay_table=self.delay_table(),
            payload_checks=self.payload_checks(simulation),
            traffic=self.run_traffic() if include_traffic else None,
        )


def run_scenario(scenario: Scenario | Mapping[str, Any]) -> ScenarioResult:
    """Run one scenario (a :class:`Scenario` or its dict form).

    Every phase of the pipeline - simulation replay, delay analysis,
    payload checks - shares the one designed program and therefore the
    one occurrence index built for it (:attr:`BroadcastProgram.index`).
    """
    if isinstance(scenario, Mapping):
        scenario = Scenario.from_dict(scenario)
    return BroadcastEngine(scenario).run()


def run_scenarios(
    scenarios: Iterable[Scenario | Mapping[str, Any]],
    *,
    max_workers: int | None = None,
) -> tuple[ScenarioResult, ...]:
    """Run a batch of scenarios (for parameter sweeps).

    Parameters
    ----------
    scenarios:
        :class:`Scenario` objects or their dict forms; dicts are
        validated up front, so a malformed entry fails before any work
        is dispatched.
    max_workers:
        ``None`` or ``1`` runs the batch serially in-process (the
        default, and bit-identical to the parallel path).  Any larger
        value fans the batch out over a process pool of that many
        workers - scenarios are independent (each designs its own
        program and occurrence index), so sweeps scale with cores.

    Results are returned in input order regardless of worker scheduling.
    """
    normalized = [
        scenario
        if isinstance(scenario, Scenario)
        else Scenario.from_dict(scenario)
        for scenario in scenarios
    ]
    if max_workers is not None:
        check_int(max_workers, "max_workers", minimum=1)
    if max_workers is None or max_workers == 1 or len(normalized) <= 1:
        return tuple(run_scenario(scenario) for scenario in normalized)

    from concurrent.futures import ProcessPoolExecutor

    tel = obs.current()
    workers = min(max_workers, len(normalized))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # One future per scenario, collected in submission order.
        # Executor.map preserves input order too; the explicit futures
        # make the guarantee structural (position bound at submit time)
        # rather than a property of map's iterator.
        futures = [
            pool.submit(obs.call_captured, tel is not None, run_scenario, s)
            for s in normalized
        ]
        results = []
        for future in futures:
            result, payload = future.result()
            if tel is not None and payload is not None:
                tel.merge_dict(payload)
            results.append(result)
        return tuple(results)
