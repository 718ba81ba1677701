"""Measure one workload in this process: untraced, or traced per layer.

Untraced (the end-to-end metrics): one untimed warm-up, then timed
repetitions until ``seconds`` have passed (at least ``MIN_REPS``).  Each
repetition is a fresh set-up followed by the measured run; further
set-ups run alone until there are ``MIN_SETUPS`` samples.  Timings
report the fastest repetition (see ``FASTEST``), every other metric the
median of its samples; all carry quartiles and the sample count.

Traced (the per-layer metrics): after the warm-up, pairs of one
untraced and one traced repetition until ``seconds`` have passed.  The
traced one runs under ``repro.obs.capture()`` inside a ``bench.rep``
span; layer probes then run on a fresh set-up, outside the capture.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from typing import Any

from repro.obs import telemetry as obs
from repro.obs.telemetry import Telemetry

from benchmarks.e2e.layers import (
    FaultWrapper,
    LayerClock,
    attach_decide_span,
    fold_spans,
    span_totals,
)
from benchmarks.e2e.workloads import Rep, Workload

MIN_REPS = 3
MIN_SETUPS = 11
ROOT_SPAN = "bench.rep"
#: Large enough that no workload's traced repetition drops a span.
SPAN_CAPACITY = 1 << 16
#: End-to-end timings report the fastest repetition.  Interference from
#: other tenants of a shared host only ever slows a repetition, and it
#: comes in phases of seconds: on a 2-vCPU VM the median repetition of
#: ten-second windows moved by 8-30% between windows, the fastest by 3-11%.
FASTEST = {"setup_s": min, "req_per_s": max}


def peak_rss_mb() -> float:
    """This process's high-water resident set in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def stats(name: str, samples: list[float]) -> dict[str, float]:
    """The reported value, median, quartiles and count of one metric."""
    median = statistics.median(samples)
    q1 = q3 = median
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    value = FASTEST.get(name, statistics.median)(samples)
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(samples)}


class Measurement:
    """Samples and verdicts gathered while measuring one workload."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.reps = 0
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layers: dict[str, Any] | None = None
        self.telemetry: Telemetry | None = None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, rep: Rep, first: Rep | None) -> None:
        self.reps += 1
        self.ops += rep.ops
        self.failed += rep.failed
        if first is not None and rep.outcome != first.outcome:
            self.failures.append(
                f"outcome changed between repetitions: "
                f"{first.outcome} then {rep.outcome}"
            )


def _timed_rep(workload: Workload, faults: FaultWrapper) -> tuple[float, Rep, float]:
    begin = time.perf_counter()
    world = workload.setup(LayerClock())
    setup_s = time.perf_counter() - begin
    begin = time.perf_counter()
    rep = workload.run(world, LayerClock(), faults)
    return setup_s, rep, time.perf_counter() - begin


def measure_untraced(workload: Workload, seconds: float) -> Measurement:
    out = Measurement()
    plain = FaultWrapper(traced=False)
    world = workload.setup(LayerClock())
    workload.run(world, LayerClock(), plain)  # warm-up
    first = None
    deadline = time.perf_counter() + seconds
    while out.reps < MIN_REPS or time.perf_counter() < deadline:
        setup_s, rep, wall = _timed_rep(workload, plain)
        out.add("setup_s", setup_s)
        out.add("req_per_s", rep.requests / wall)
        out.count(rep, first)
        first = first or rep
    while len(out.samples["setup_s"]) < MIN_SETUPS:
        begin = time.perf_counter()
        world = workload.setup(LayerClock())
        out.add("setup_s", time.perf_counter() - begin)
    out.add("peak_rss_mb", peak_rss_mb())
    for name, value in rep.outcome.items():
        out.add(name, value)
    checks = workload.check(world, rep)
    out.failures.extend(checks)
    return out


def layer_values(
    tel: Telemetry, clock: LayerClock, faults: FaultWrapper, rep: Rep,
    folded: dict[str, Any],
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = span_totals(tel)

    def wall(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    def counter(name: str, **labels: Any) -> float:
        return tel.value(name, **labels) or 0

    cohorts = tel.get_histogram("soa.cohort_size")
    decisions = faults.totals()
    simulate_s = wall("traffic.simulate")
    values = {
        "api.parse_s": clock.seconds["api.parse"],
        "bdisk.design_s": clock.seconds["bdisk.design"],
        "bdisk.index_build_s": clock.seconds["bdisk.index_build"],
        "core.solve_s": wall("solve"),
        "core.solve_calls": spans.get("solve", (0, 0.0))[0],
        "traffic.tables_build_s": clock.seconds["traffic.tables_build"],
        "traffic.simulate_s": simulate_s,
        "traffic.engine_self_s": simulate_s - decisions["sim.faults.decide_s"],
        "traffic.waves": counter("soa.waves"),
        "traffic.cohort_size_mean": cohorts.mean if cohorts else 0.0,
        "traffic.retrievals_lut": counter(
            "traffic.retrievals", oracle="soa", kind="lut"
        ),
        "traffic.retrievals_walker": counter(
            "traffic.retrievals", oracle="soa", kind="walker"
        ),
        **decisions,
        "sweep.expand_s": clock.seconds["sweep.expand"],
        "sweep.queue_s": wall("sweep.cell.queue"),
        "sweep.solve_s": wall("sweep.cell.solve"),
        "sweep.simulate_s": wall("sweep.cell.simulate"),
        "sweep.store_s": wall("sweep.cell.store"),
        "sweep.warm_design_s": wall("sweep.warm_design"),
        "sweep.worker_utilization": counter("sweep.worker_utilization"),
        "server.resolve_s": wall("server.mutation.resolve"),
        "server.splice_search_s": wall("server.mutation.splice_search"),
        "server.splice_commit_s": wall("server.mutation.splice_commit"),
        "server.advance_s": clock.seconds["server.advance"],
        "obs.spans_dropped": folded["spans_dropped"],
        "obs.layer_coverage": folded["coverage"],
    }
    values.update(rep.layer)
    return values


def measure_traced(
    workload: Workload, seconds: float, layer_names: list[str]
) -> Measurement:
    out = Measurement()
    plain = FaultWrapper(traced=False)
    world = workload.setup(LayerClock())
    workload.run(world, LayerClock(), plain)  # warm-up
    untraced: list[float] = []
    traced: list[float] = []
    first = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        _, rep, wall = _timed_rep(workload, plain)
        untraced.append(wall)
        out.count(rep, first)
        first = first or rep

        tel = Telemetry(span_capacity=SPAN_CAPACITY)
        clock = LayerClock()
        faults = FaultWrapper(traced=True)
        with obs.capture(tel):
            with tel.span(ROOT_SPAN, workload=workload.name):
                world = workload.setup(clock)
                begin = time.perf_counter()
                rep = workload.run(world, clock, faults)
                traced.append(time.perf_counter() - begin)
        out.count(rep, first)
        attach_decide_span(tel, faults.totals()["sim.faults.decide_s"])
        folded = fold_spans(tel, ROOT_SPAN)
        values = dict.fromkeys(layer_names, 0.0)
        values.update(layer_values(tel, clock, faults, rep, folded))
        values.update(workload.probe(workload.setup(LayerClock())))
        for name in layer_names:
            out.add(name, values[name])
        out.layers, out.telemetry = folded, tel
    overhead = min(traced) / min(untraced) - 1.0
    out.samples["obs.overhead"] = [overhead]
    return out
