"""Measuring layers from outside the program.

The benchmark never adds instrumentation inside ``src/``.  It times its
own calls into each layer's public functions (:class:`LayerClock`),
times fault decisions through a delegating proxy around the fault-model
instance it hands the simulator (:class:`TimedFaults`), and reads the
spans and counters ``repro.obs`` already emits (:func:`fold_spans`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.obs import telemetry as obs
from repro.obs.summarize import aggregate_span_tree
from repro.obs.telemetry import Telemetry
from repro.sim.faults import NoFaults


class LayerClock:
    """Wall seconds per layer, accumulated around the benchmark's calls.

    ``with clock("bdisk.design"): ...`` adds the block's wall time to
    ``clock.seconds["bdisk.design"]``.  Under an active telemetry
    capture the block is also a ``bench.bdisk.design`` span, so the
    spans the program emits inside the call nest under it.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, layer: str) -> Iterator[None]:
        with obs.span("bench." + layer):
            begin = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[layer] += time.perf_counter() - begin


class TimedFaults:
    """A fault model that times every decision of the model it wraps.

    It delegates to the same instance, so the wrapped model's per-slot
    memo keeps working and every decision is unchanged.  It tallies the
    seconds spent deciding, the batches, the slots queried and the
    distinct slots among them.
    """

    def __init__(self, model: Any) -> None:
        self.model = model
        self.seconds = 0.0
        self.batches = 0
        self.queried = 0
        self.distinct: set[int] = set()

    def is_lost(self, t: int) -> bool:
        begin = time.perf_counter()
        lost = self.model.is_lost(t)
        self.seconds += time.perf_counter() - begin
        self.batches += 1
        self.queried += 1
        self.distinct.add(t)
        return lost

    def lost_in(self, slots: Sequence[int]) -> list[bool]:
        begin = time.perf_counter()
        lost = self.model.lost_in(slots)
        self.seconds += time.perf_counter() - begin
        self.batches += 1
        self.queried += len(slots)
        self.distinct.update(slots)
        return lost


class FaultWrapper:
    """Hands the simulator fault models, wrapped only when tracing.

    It never wraps :class:`~repro.sim.faults.NoFaults`: the SoA engine
    picks its fault-free lookup path with ``isinstance(model, NoFaults)``,
    so a wrapped ``NoFaults`` would move a clean run onto the walker.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.proxies: list[TimedFaults] = []

    def __call__(self, model: Any) -> Any:
        if not self.traced or isinstance(model, NoFaults):
            return model
        proxy = TimedFaults(model)
        self.proxies.append(proxy)
        return proxy

    def totals(self) -> dict[str, float]:
        seconds = sum(p.seconds for p in self.proxies)
        queried = sum(p.queried for p in self.proxies)
        distinct = sum(len(p.distinct) for p in self.proxies)
        return {
            "sim.faults.decide_s": seconds,
            "sim.faults.batches": sum(p.batches for p in self.proxies),
            "sim.faults.slots_queried": queried,
            "sim.faults.distinct_slots": distinct,
            "sim.faults.distinct_ratio": distinct / queried if queried else 0.0,
        }


def attach_decide_span(tel: Telemetry, seconds: float) -> None:
    """Record the proxy's decision time as a child of ``traffic.simulate``.

    The program records ``traffic.simulate`` once the run returns; a
    pre-measured ``sim.faults.decide`` child under it makes the folded
    self time of ``traffic.simulate`` the engine's own time.
    """
    parents = [span for span in tel.spans if span.name == "traffic.simulate"]
    if seconds and len(parents) == 1:
        tel.record_span("sim.faults.decide", seconds, parent=parents[0].id)


def _walk(node: Any, path: str, out: dict[str, dict[str, float]]) -> None:
    for child in node.children.values():
        key = f"{path}/{child.name}" if path else child.name
        children_wall = sum(c.wall for c in child.children.values())
        out[key] = {
            "count": child.count,
            "wall_s": child.wall,
            "self_s": child.wall - children_wall,
        }
        _walk(child, key, out)


def fold_spans(tel: Telemetry, root: str) -> dict[str, Any]:
    """Self time per span name path, plus how much of ``root`` is covered.

    ``coverage`` is the share of the ``root`` span's wall spent inside
    its child spans - the benchmark's ``bench.<layer>`` spans - rather
    than in the benchmark's own glue.  Spans that pool workers shipped back
    are separate roots; they overlap the parent's wall in time and are
    reported but left out of the coverage.
    """
    paths: dict[str, dict[str, float]] = {}
    _walk(aggregate_span_tree(tel), "", paths)
    top = paths.get(root, {"wall_s": 0.0, "self_s": 0.0})
    coverage = 1.0 - top["self_s"] / top["wall_s"] if top["wall_s"] else 0.0
    return {
        "root": root,
        "wall_s": top["wall_s"],
        "coverage": coverage,
        "spans_dropped": tel.spans.dropped,
        "paths": paths,
    }


def span_totals(tel: Telemetry) -> dict[str, tuple[int, float]]:
    """``(count, wall seconds)`` per span name, wherever the span nests."""
    totals: dict[str, tuple[int, float]] = {}
    for span in tel.spans:
        count, wall = totals.get(span.name, (0, 0.0))
        totals[span.name] = (count + 1, wall + span.wall)
    return totals
