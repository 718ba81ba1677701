"""The six named workloads of the end-to-end benchmark.

Each workload is a fixed "system" (catalogue, scenario, sweep grid) plus
inputs generated from the benchmark's ``--seed``: traffic seeds, fault
seeds and the mutation script derive from it, and the program only ever
sees the generated inputs.  A workload offers four calls:

* ``setup(clock)`` - everything a user pays before the first simulated
  request (parse, design, first ``.index``, table build, spec expand,
  server sign-on); the benchmark's ``setup_s``;
* ``run(world, clock, faults)`` - the measured work, returning a
  :class:`Rep`;
* ``check(world, rep)`` - output checks, run outside the timed region;
* ``probe(world)`` - per-call timings of single layers on seeded
  probes, reported as per-layer metrics.

``why`` strings live in ``BENCHMARK.json``; the README says why each
workload was chosen.
"""

from __future__ import annotations

import copy
import hashlib
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import Scenario
from repro.api.engine import BroadcastEngine
from repro.api.scenario import FaultSpec
from repro.bdisk.multidisk import build_multidisk_program, config_from_demand
from repro.errors import ReproError
from repro.rtdb.updates import retrieve_versioned_quorum
from repro.server import BroadcastServer
from repro.server.mutations import FaultBudgetBump, ModeChange
from repro.sim.client import retrieve
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import SolveCache
from repro.traffic import TrafficSpec, simulate_traffic
from repro.traffic.cohorts import RetrievalTables
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.simulate import simulate_traffic_shard

from benchmarks.e2e.layers import FaultWrapper, LayerClock

SCALES = ("full", "smoke")

#: Clients whose SoA and object-engine metrics must agree exactly.
CHECK_CLIENTS = 500


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one input stream, derived from the run's seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def outcome(metrics: TrafficMetrics) -> dict[str, float]:
    """The simulated outcome: exact for a given seed, whatever the speed."""
    return {
        "mean_slots": metrics.mean_latency,
        "p99_slots": metrics.quantile(0.99),
        "ontime_rate": 1.0 - metrics.miss_rate,
    }


def fingerprint(metrics: TrafficMetrics) -> dict[str, Any]:
    """Every observable of a metrics accumulator, for engine equality."""
    return {
        "requests": metrics.requests,
        "completions": metrics.completions,
        "aborts": metrics.aborts,
        "deadline_misses": metrics.deadline_misses,
        "counts": metrics.counts,
        "requests_by_file": dict(metrics.requests_by_file),
        "hits_by_file": dict(metrics.hits_by_file),
        "summary": metrics.summary(),
        "item_reads": metrics.item_reads,
        "stale_reads": metrics.stale_reads,
        "torn_discards": metrics.torn_discards,
        "age_sum": metrics.age_sum,
        "channel_switches": metrics.channel_switches,
        "quorum_reads": dict(metrics.quorum_reads),
    }


def _engine_check(
    soa: TrafficMetrics, reference: TrafficMetrics, hi: int, rep: "Rep"
) -> list[str]:
    failures = []
    if fingerprint(soa) != fingerprint(reference):
        failures.append(
            f"SoA and object engines disagree on clients [0, {hi})"
        )
    metrics = rep.result
    if metrics.completions + metrics.aborts != metrics.requests:
        failures.append(
            f"completions {metrics.completions} + aborts {metrics.aborts} "
            f"!= requests {metrics.requests}"
        )
    return failures


@dataclass
class Rep:
    """What one measured repetition produced."""

    #: Simulated requests served (the numerator of ``req_per_s``).
    requests: int
    #: Operations attempted, and those that raised or were rejected.
    ops: int
    failed: int
    outcome: dict[str, float]
    #: What the measured call returned.
    result: Any = None
    #: Per-layer values only the workload knows (counts, latencies).
    layer: dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: a named workload at one scale, seeded by ``seed``."""

    name = ""

    def __init__(self, seed: int, scale: str, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.probes = 2000 if scale == "full" else 50

    def setup(self, clock: LayerClock) -> Any:
        raise NotImplementedError

    def run(self, world: Any, clock: LayerClock, faults: FaultWrapper) -> Rep:
        raise NotImplementedError

    def check(self, world: Any, rep: Rep) -> list[str]:
        raise NotImplementedError

    def probe(self, world: Any) -> dict[str, float]:
        raise NotImplementedError

    def _starts(self, choices: tuple[str, ...], horizon: int) -> list[tuple[str, int]]:
        rng = random.Random(derive_seed(self.seed, "probes"))
        return [
            (rng.choice(choices), rng.randrange(horizon))
            for _ in range(self.probes)
        ]


def _per_call_us(calls: list, fn) -> float:
    """Mean microseconds per call of ``fn`` over the probe arguments."""
    begin = time.perf_counter()
    for args in calls:
        fn(*args)
    return (time.perf_counter() - begin) / len(calls) * 1e6


# ---------------------------------------------------------------------------
# traffic-clean, traffic-bernoulli, traffic-burst
# ---------------------------------------------------------------------------

#: The multidisk baseline: five files on three disks, data cycle 44.
FILES = (("hot", 2), ("warm-1", 3), ("warm-2", 3), ("cold-1", 5), ("cold-2", 6))
CATALOGUE = tuple(name for name, _ in FILES)
SIZES = dict(FILES)
DEMAND = {"hot": 20.0, "warm-1": 5.0, "warm-2": 4.0, "cold-1": 1.0, "cold-2": 0.5}
DEADLINES = {"hot": 30, "warm-1": 45, "warm-2": 45, "cold-1": 75, "cold-2": 90}
LEVELS = (4, 2, 1)

#: (clients, duration in slots) per workload and scale.  The faulty
#: workloads keep the load density of 50,000 clients over 200,000
#: slots, so slot sharing between clients is that of the larger run.
TRAFFIC_SIZES = {
    "full": {
        "traffic-clean": (300_000, 200_000),
        "traffic-bernoulli": (5_000, 20_000),
        "traffic-burst": (5_000, 20_000),
    },
    "smoke": {
        "traffic-clean": (20_000, 20_000),
        "traffic-bernoulli": (300, 1_200),
        "traffic-burst": (300, 1_200),
    },
}


@dataclass
class TrafficWorld:
    program: Any
    spec: TrafficSpec


class TrafficWorkload(Workload):
    """The SoA engine over the multidisk baseline under one fault channel."""

    def __init__(self, name: str, seed: int, scale: str, scratch: Path) -> None:
        super().__init__(seed, scale, scratch)
        self.name = name
        fault_seed = derive_seed(seed, "faults")
        self.fault_spec = FaultSpec.from_dict(
            {
                "traffic-clean": {"kind": "none"},
                "traffic-bernoulli": {
                    "kind": "bernoulli", "probability": 0.05, "seed": fault_seed,
                },
                "traffic-burst": {
                    "kind": "burst", "p_enter": 0.02, "p_exit": 0.25,
                    "seed": fault_seed,
                },
            }[name]
        )
        clients, duration = TRAFFIC_SIZES[scale][name]
        self.spec = TrafficSpec(
            clients=clients,
            duration=duration,
            arrival="poisson",
            popularity="zipf",
            zipf_skew=1.2,
            requests_per_client=4,
            think_time=10,
            seed=derive_seed(seed, "traffic"),
        )

    def setup(self, clock: LayerClock) -> TrafficWorld:
        with clock("bdisk.design"):
            program = build_multidisk_program(
                config_from_demand(list(FILES), DEMAND, levels=LEVELS)
            )
        with clock("bdisk.index_build"):
            program.index
        with clock("traffic.tables_build"):
            RetrievalTables.build(program, CATALOGUE, SIZES, self.spec.max_slots)
        return TrafficWorld(program, self.spec)

    def run(self, world: TrafficWorld, clock: LayerClock, faults: FaultWrapper) -> Rep:
        # A fresh model per rep: a reused one would answer from its memo.
        model = faults(self.fault_spec.build())
        with clock("traffic.simulate"):
            result = simulate_traffic(
                world.program, CATALOGUE, world.spec,
                file_sizes=SIZES, deadlines=DEADLINES,
                faults=model, engine="soa",
            )
        return Rep(
            requests=result.requests,
            ops=result.requests,
            failed=0,
            outcome=outcome(result.metrics),
            result=result.metrics,
        )

    def check(self, world: TrafficWorld, rep: Rep) -> list[str]:
        hi = min(CHECK_CLIENTS, world.spec.clients)
        soa, reference = (
            simulate_traffic_shard(
                world.program, CATALOGUE, world.spec,
                file_sizes=SIZES, deadlines=DEADLINES,
                faults=self.fault_spec, lo=0, hi=hi, engine=engine,
            )
            for engine in ("soa", "object")
        )
        failures = _engine_check(soa, reference, hi, rep)
        expected = world.spec.clients * world.spec.requests_per_client
        if rep.result.requests != expected:
            failures.append(
                f"served {rep.result.requests} requests, expected {expected}"
            )
        return failures

    def probe(self, world: TrafficWorld) -> dict[str, float]:
        model = self.fault_spec.build()
        calls = self._starts(CATALOGUE, world.spec.duration)
        return {
            "sim.retrieve_us": _per_call_us(
                calls,
                lambda file, start: retrieve(
                    world.program, file, SIZES[file], start=start, faults=model
                ),
            )
        }


# ---------------------------------------------------------------------------
# temporal-quorum
# ---------------------------------------------------------------------------

#: examples/scenario_multichannel.json: three replicated channels, quorum
#: 2, version-consistent transactions, Bernoulli losses of 5%.
QUORUM_SCENARIO: dict[str, Any] = {
    "name": "awacs-multichannel",
    "files": [],
    "temporal": {
        "slot_ms": 10,
        "items": [
            {"name": "air-tracks", "blocks": 2, "max_age_ms": 3000, "default_faults": 4},
            {"name": "ground-tracks", "blocks": 3, "max_age_ms": 6000, "default_faults": 6},
            {"name": "terrain", "blocks": 4, "max_age_ms": 30000, "default_faults": 8},
        ],
        "update_periods": {"air-tracks": 240, "ground-tracks": 480, "terrain": 2400},
        "transactions": [
            {"name": "track", "items": ["air-tracks"], "deadline_slots": 1200, "weight": 6},
            {"name": "recon", "items": ["air-tracks", "ground-tracks"], "deadline_slots": 2400, "weight": 3},
            {"name": "survey", "items": ["terrain"], "deadline_slots": 6000, "weight": 1},
        ],
    },
    "channels": {"count": 3, "assignment": "replicated", "tuning_cost": 2, "quorum": 2},
    "block_size": 64,
    "faults": {"kind": "bernoulli", "probability": 0.05, "seed": 1997},
    "traffic": {
        "clients": 300, "duration": 6000, "arrival": "poisson",
        "popularity": "zipf", "zipf_skew": 1.2, "requests_per_client": 3,
        "think_time": 20, "seed": 42,
    },
}

QUORUM_SIZES = {"full": (400, 8_000), "smoke": (20, 600)}


@dataclass
class QuorumWorld:
    scenario: Scenario
    engine: BroadcastEngine
    design: Any

    @property
    def channels(self) -> Any:
        return self.design.channel_set

    @property
    def sizes(self) -> dict[str, int]:
        return {spec.name: spec.blocks for spec in self.scenario.files}

    @property
    def deadlines(self) -> dict[str, int]:
        # The designed latency budgets at channel 0's planned bandwidth;
        # check() pins this to what BroadcastEngine hands the simulator.
        bandwidth = self.design.designs[0].bandwidth_plan.bandwidth
        return {
            spec.name: spec.latency * bandwidth
            for spec in self.scenario.effective_files
        }

    @property
    def catalogue(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.scenario.files)


class TemporalQuorumWorkload(Workload):
    """Versioned 2-of-3 quorum reads over three replicated channels."""

    name = "temporal-quorum"

    def __init__(self, seed: int, scale: str, scratch: Path) -> None:
        super().__init__(seed, scale, scratch)
        self.probes = 300 if scale == "full" else 20
        payload = copy.deepcopy(QUORUM_SCENARIO)
        clients, duration = QUORUM_SIZES[scale]
        payload["traffic"].update(
            clients=clients, duration=duration,
            seed=derive_seed(seed, "traffic"),
        )
        payload["faults"]["seed"] = derive_seed(seed, "faults")
        self.payload = payload

    def setup(self, clock: LayerClock) -> QuorumWorld:
        with clock("api.parse"):
            scenario = Scenario.from_dict(self.payload)
        with clock("bdisk.design"):
            engine = BroadcastEngine(scenario)
            design = engine.design()
        with clock("bdisk.index_build"):
            for program in design.channel_set.programs:
                program.index
        return QuorumWorld(scenario, engine, design)

    def _channel_faults(self, world: QuorumWorld) -> list[Any]:
        faults = world.scenario.faults
        return [faults.for_channel(c).build() for c in range(world.channels.count)]

    def run(self, world: QuorumWorld, clock: LayerClock, faults: FaultWrapper) -> Rep:
        scenario = world.scenario
        models = [faults(model) for model in self._channel_faults(world)]
        with clock("traffic.simulate"):
            result = simulate_traffic(
                None, world.catalogue, scenario.traffic,
                file_sizes=world.sizes, deadlines=world.deadlines,
                faults=models, temporal=scenario.temporal,
                channels=world.channels, engine="soa",
            )
        metrics = result.metrics
        return Rep(
            requests=result.requests,
            ops=result.requests,
            failed=0,
            outcome=outcome(metrics),
            result=metrics,
            layer={"rtdb.quorum_ok_rate": metrics.quorum_success_rate},
        )

    def check(self, world: QuorumWorld, rep: Rep) -> list[str]:
        scenario = world.scenario
        hi = min(CHECK_CLIENTS, scenario.traffic.clients)
        soa = simulate_traffic_shard(
            None, world.catalogue, scenario.traffic,
            file_sizes=world.sizes, deadlines=world.deadlines,
            faults=scenario.faults, temporal=scenario.temporal,
            channels=world.channels, lo=0, hi=hi, engine="soa",
        )
        reference = world.engine.run_traffic_shard(0, hi, engine="object")
        return _engine_check(soa, reference, hi, rep)

    def probe(self, world: QuorumWorld) -> dict[str, float]:
        scenario = world.scenario
        server = scenario.temporal.server()
        models = self._channel_faults(world)
        sizes = world.sizes
        max_slots = scenario.traffic.max_slots
        calls = self._starts(world.catalogue, scenario.traffic.duration)
        return {
            "rtdb.quorum_read_us": _per_call_us(
                calls,
                lambda item, start: retrieve_versioned_quorum(
                    world.channels, server, item, sizes[item],
                    start=start, faults=models, max_slots=max_slots,
                ),
            ),
            "sim.retrieve_us": _per_call_us(
                calls,
                lambda file, start: retrieve(
                    world.channels.programs[0], file, sizes[file],
                    start=start, faults=models[0],
                ),
            ),
        }


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------

SWEEP_WORKERS = 2
SWEEP_SIZES = {
    # (catalogue files, requests per cell, loss probabilities, fault seeds)
    "full": (40, 6, (0.0, 0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3), 4),
    "smoke": (8, 4, (0.0, 0.1), 1),
}


def sweep_catalogue(files: int) -> list[dict[str, Any]]:
    """The seeded catalogue of BENCH_sweep: fixed, so designs are too."""
    rng = random.Random(0x1997)
    catalogue = []
    for index in range(files):
        blocks = rng.randint(2, 6)
        catalogue.append(
            {
                "name": f"f{index:02d}",
                "blocks": blocks,
                "latency": rng.randint(3 * blocks, 6 * blocks),
                "fault_budget": rng.randint(0, 2),
            }
        )
    return catalogue


@dataclass
class SweepWorld:
    spec: SweepSpec
    cells: tuple
    designs: int


class SweepGridWorkload(Workload):
    """A fault grid over three designs on a two-worker pool."""

    name = "sweep-grid"

    def __init__(self, seed: int, scale: str, scratch: Path) -> None:
        super().__init__(seed, scale, scratch)
        files, requests, probabilities, seeds = SWEEP_SIZES[scale]
        # The grid is fixed data, as the catalogue is: its replay stream
        # and its fault-seed axis do not follow --seed.  With 6 requests
        # per cell, streams drawn from --seed moved the grid's mean
        # latency by 40% between seeds, and fault seeds drawn from it
        # moved the mean per-cell p99 by 19-33%.
        self.payload = {
            "name": "e2e-sweep-grid",
            "base": {
                "name": "solve-cache-grid",
                "files": sweep_catalogue(files),
                "workload": {"requests": requests, "horizon": 150, "seed": 7},
            },
            "axes": [
                {"field": "faults.kind", "values": ["bernoulli"]},
                {"field": "faults.probability", "values": list(probabilities)},
                {"field": "faults.seed", "values": list(range(1, seeds + 1))},
                {"field": "files.0.fault_budget", "values": [0, 1, 2]},
            ],
        }

    def setup(self, clock: LayerClock) -> SweepWorld:
        with clock("api.parse"):
            spec = SweepSpec.from_dict(self.payload)
        with clock("sweep.expand"):
            cells = spec.cells()
            designs = len({cell.scenario.design_fingerprint() for cell in cells})
        return SweepWorld(spec, cells, designs)

    def run(self, world: SweepWorld, clock: LayerClock, faults: FaultWrapper) -> Rep:
        # A fresh store and solve-cache per rep, so every rep solves.
        directory = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        try:
            with clock("sweep.run"):
                result = run_sweep(
                    world.spec,
                    max_workers=SWEEP_WORKERS,
                    store_path=directory / "runs.jsonl",
                    cache_dir=directory / "solve-cache",
                )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        simulations = [row["result"]["simulation"] for row in result.rows]
        checked = [
            sim for sim in simulations
            if sim is not None and all((sim["payload_checks"] or {}).values())
        ]
        good = [sim for sim in checked if sim["latency"]["bounded"]]
        if not good:
            raise RuntimeError("sweep-grid produced no bounded cell")
        return Rep(
            requests=sum(sim["requests"] for sim in checked),
            ops=len(result.rows),
            failed=len(simulations) - len(checked),
            # Means over cells whose delay stayed bounded.
            outcome={
                "mean_slots": statistics.fmean(s["latency"]["mean"] for s in good),
                "p99_slots": statistics.fmean(s["latency"]["p99"] for s in good),
                "ontime_rate": 1.0 - statistics.fmean(
                    s["deadline_miss_rate"] for s in good
                ),
            },
            result=result,
            layer={
                "sweep.cache_hits": result.cache_hits,
                "sweep.cache_solves": result.solves,
            },
        )

    def check(self, world: SweepWorld, rep: Rep) -> list[str]:
        result = rep.result
        failures = []
        if len(result.rows) != len(world.cells):
            failures.append(f"{len(result.rows)} rows for {len(world.cells)} cells")
        if rep.failed:
            failures.append(f"{rep.failed} error rows")
        if result.solves != world.designs:
            failures.append(f"{result.solves} solves for {world.designs} designs")
        return failures

    def probe(self, world: SweepWorld) -> dict[str, float]:
        scenario = world.cells[-1].scenario  # the highest loss probability
        engine = BroadcastEngine(scenario)
        program = engine.design().program
        simulation = engine.simulate()
        begin = time.perf_counter()
        checks = engine.payload_checks(simulation)
        payload_s = time.perf_counter() - begin
        if not checks or not all(checks.values()):
            raise RuntimeError("payload checks failed on the probe cell")
        model = scenario.faults.build()
        sizes = {spec.name: spec.blocks for spec in scenario.files}
        calls = self._starts(tuple(sizes), program.data_cycle_length * 8)
        return {
            "ida.payload_check_s": payload_s,
            "sim.retrieve_us": _per_call_us(
                calls,
                lambda file, start: retrieve(
                    program, file, sizes[file], start=start, faults=model
                ),
            ),
        }


# ---------------------------------------------------------------------------
# server-live
# ---------------------------------------------------------------------------

#: examples/server_awacs_modes.json: two files, two operation modes.
SERVER_SCENARIO: dict[str, Any] = {
    "name": "awacs-live",
    "files": [
        {"name": "pos", "blocks": 2, "latency": 5, "fault_budget": 0},
        {"name": "map", "blocks": 2, "latency": 8, "fault_budget": 0},
    ],
    "block_size": 64,
    "mode": "surveillance",
    "redundancy": {
        "default": 0,
        "budgets": {
            "surveillance": {"pos": 0, "map": 0},
            "combat": {"pos": 1, "map": 0},
        },
    },
    "faults": {"kind": "none"},
    "traffic": {
        "clients": 12, "duration": 600, "arrival": "poisson",
        "popularity": "zipf", "requests_per_client": 20, "think_time": 2,
        "seed": 7, "zipf_skew": 1.0,
    },
}

#: (clients, duration in slots, requests per client, mutations).
SERVER_SIZES = {"full": (40, 6_000, 150, 100), "smoke": (10, 2_000, 40, 10)}
MAX_BUDGET = 2


def mutation_plan(seed: int, duration: int, count: int) -> list[tuple[int, Any]]:
    """Seeded mode changes and budget bumps, each valid when applied.

    The generator tracks the mode and every budget, so no mutation names
    an undeclared mode or drives a budget outside ``[0, MAX_BUDGET]``.
    """
    rng = random.Random(seed)
    budgets = copy.deepcopy(SERVER_SCENARIO["redundancy"]["budgets"])
    mode = SERVER_SCENARIO["mode"]
    plan = []
    for k in range(count):
        at = (k + 1) * duration // (count + 1)
        if rng.random() < 0.5:
            mode = "combat" if mode == "surveillance" else "surveillance"
            plan.append((at, ModeChange(mode)))
            continue
        file = rng.choice(("pos", "map"))
        current = budgets[mode][file]
        if current == 0:
            delta = 1
        elif current == MAX_BUDGET:
            delta = -1
        else:
            delta = rng.choice((-1, 1))
        budgets[mode][file] = current + delta
        plan.append((at, FaultBudgetBump(file, delta)))
    return plan


class ServerLiveWorkload(Workload):
    """One operator applying mutations to a live server with traffic."""

    name = "server-live"

    def __init__(self, seed: int, scale: str, scratch: Path) -> None:
        super().__init__(seed, scale, scratch)
        clients, duration, requests, mutations = SERVER_SIZES[scale]
        payload = copy.deepcopy(SERVER_SCENARIO)
        payload["traffic"].update(
            clients=clients, duration=duration, requests_per_client=requests,
            seed=derive_seed(seed, "traffic"),
        )
        self.payload = payload
        self.duration = duration
        self.plan = mutation_plan(derive_seed(seed, "mutations"), duration, mutations)

    def setup(self, clock: LayerClock) -> BroadcastServer:
        with clock("api.parse"):
            scenario = Scenario.from_dict(self.payload)
        with clock("server.sign_on"):
            return BroadcastServer(scenario, cache=SolveCache())

    def run(self, server: BroadcastServer, clock: LayerClock, faults: FaultWrapper) -> Rep:
        latencies = []
        rejected = 0
        for at, mutation in self.plan:
            with clock("server.advance"):
                server.advance(until=at)
            begin = time.perf_counter()
            try:
                with clock("server.apply"):
                    server.apply(mutation)
            except ReproError:
                rejected += 1
            latencies.append((time.perf_counter() - begin) * 1e3)
        with clock("server.advance"):
            server.advance()
        with clock("server.close"):
            result = server.close()
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        return Rep(
            requests=result.metrics.requests,
            ops=result.metrics.requests + len(self.plan),
            failed=rejected,
            outcome=outcome(result.metrics),
            result=result,
            layer={
                "server.apply_p50_ms": statistics.median(latencies),
                "server.apply_p90_ms": deciles[8],
                "server.resplices": result.resplices,
                "server.cache_solves": result.cache_stats["solves"],
            },
        )

    def check(self, server: BroadcastServer, rep: Rep) -> list[str]:
        failures = []
        if rep.result.violations:
            failures.append(f"{len(rep.result.violations)} splice violations")
        if rep.failed:
            failures.append(f"{rep.failed} rejected mutations")
        return failures

    def probe(self, server: BroadcastServer) -> dict[str, float]:
        files = tuple(spec["name"] for spec in SERVER_SCENARIO["files"])
        calls = self._starts(files, self.duration)
        return {
            "server.live_retrieve_us": _per_call_us(
                calls, server.live_retrieve
            ),
        }


WORKLOADS = (
    "traffic-clean",
    "traffic-bernoulli",
    "traffic-burst",
    "temporal-quorum",
    "sweep-grid",
    "server-live",
)


def make_workload(name: str, seed: int, scale: str, scratch: Path) -> Workload:
    """The named workload, with inputs generated from ``seed``."""
    if name.startswith("traffic-"):
        return TrafficWorkload(name, seed, scale, scratch)
    classes = {
        "temporal-quorum": TemporalQuorumWorkload,
        "sweep-grid": SweepGridWorkload,
        "server-live": ServerLiveWorkload,
    }
    return classes[name](seed, scale, scratch)
