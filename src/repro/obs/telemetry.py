"""The telemetry registry: counters, gauges, and fixed-bucket histograms
that merge exactly across shards and processes.

The merge contract mirrors :meth:`TrafficMetrics.merged`: a serial run
and a sharded run over the same work produce *bit-identical* aggregates
for every deterministic instrument, because merging is pure integer /
elementwise addition over identical bucket layouts.  Instruments declare
a **stability class** so consumers can tell which aggregates carry that
guarantee:

``exact``
    Deterministic *and* shard-layout-invariant: serial == merged shards,
    always.  (Request counts, latency histograms, solver attempts.)
``shape``
    Deterministic for a fixed shard layout but dependent on it (lookup-
    versus-walk retrieval splits, cohort wave sizes, fault-draw batching).
``volatile``
    Wall-clock or environment derived (span timings, rows/s, worker
    utilization).  Never compared across runs.

Activation is explicit and scoped: nothing is recorded unless a
:class:`Telemetry` instance is *active* (see :func:`capture`).  The
disabled path is a single module-global ``None`` check, so instrumented
hot loops cost nothing measurable when telemetry is off.  Telemetry
never touches an RNG and never reorders events - it only observes.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

from repro.errors import SpecificationError
from repro.obs.spans import DEFAULT_SPAN_CAPACITY, Span, SpanRing

__all__ = [
    "Telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "STABILITIES",
    "DEFAULT_BOUNDS",
    "TIME_BOUNDS",
    "current",
    "activate",
    "deactivate",
    "capture",
    "call_captured",
    "span",
    "inc",
    "observe",
    "gauge",
]

STABILITIES = ("exact", "shape", "volatile")

#: Power-of-two buckets: right for slot-valued latencies and batch sizes.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(float(1 << k) for k in range(21))

#: Log-ish buckets for wall/CPU seconds (100us .. 100s).
TIME_BOUNDS: tuple[float, ...] = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _check_stability(stability: str) -> str:
    if stability not in STABILITIES:
        raise SpecificationError(
            f"unknown stability class {stability!r}; expected one of {STABILITIES}"
        )
    return stability


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic integer count.  Merge = sum."""

    __slots__ = ("value", "stability")
    kind = "counter"

    def __init__(self, stability: str = "exact") -> None:
        self.value = 0
        self.stability = stability

    def add(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-observed value.  Merge = max (documented, for utilization-style
    gauges where "the busiest shard" is the useful aggregate)."""

    __slots__ = ("value", "stability")
    kind = "gauge"

    def __init__(self, stability: str = "volatile") -> None:
        self.value = 0.0
        self.stability = stability

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with exact totals.

    ``counts[i]`` holds observations with ``value <= bounds[i]``;
    ``counts[-1]`` is the overflow bucket.  Because the bucket layout is
    fixed at first registration and merging is elementwise addition,
    sharded histograms merge bit-identically to a serial run.
    """

    __slots__ = ("bounds", "counts", "total", "count", "vmin", "vmax", "unit", "stability")
    kind = "histogram"

    def __init__(
        self,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
        unit: str = "",
        stability: str = "exact",
    ) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise SpecificationError(
                f"histogram bounds must be strictly increasing, got {bounds!r}"
            )
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.unit = unit
        self.stability = stability

    def observe(self, value: float, n: int = 1) -> None:
        self.counts[bisect_left(self.bounds, value)] += n
        self.total += value * n
        self.count += n
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise SpecificationError(
                "cannot merge histograms with different bucket layouts: "
                f"{self.bounds!r} vs {other.bounds!r}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total
        self.count += other.count
        for value in (other.vmin, other.vmax):
            if value is None:
                continue
            if self.vmin is None or value < self.vmin:
                self.vmin = value
            if self.vmax is None or value > self.vmax:
                self.vmax = value


class _SpanContext:
    """Re-entrant-per-use context manager closing one span."""

    __slots__ = ("_ring", "span")

    def __init__(self, ring: SpanRing, span: Span) -> None:
        self._ring = ring
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc: Any) -> None:
        self._ring.close(self.span)


class _NullSpan:
    """Do-nothing span context used when telemetry is inactive."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """A registry of named, labelled instruments plus a span ring.

    Instruments are keyed by ``(name, sorted(labels))``.  The first
    registration fixes kind, stability, and (for histograms) the bucket
    layout; later lookups with conflicting declarations raise
    :class:`SpecificationError` rather than silently forking the
    instrument.
    """

    def __init__(self, *, span_capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        self._instruments: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}
        self.spans = SpanRing(span_capacity)
        #: Payload dicts merged into this registry (for debugging fan-in).
        self.merged_payloads = 0

    # -- instrument accessors -------------------------------------------------

    def counter(self, name: str, *, stability: str = "exact", **labels: Any) -> Counter:
        return self._instrument(name, _label_key(labels), Counter, stability)

    def gauge_cell(self, name: str, *, stability: str = "volatile", **labels: Any) -> Gauge:
        return self._instrument(name, _label_key(labels), Gauge, stability)

    def histogram(
        self,
        name: str,
        *,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
        unit: str = "",
        stability: str = "exact",
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        found = self._instruments.get(key)
        if found is None:
            found = Histogram(bounds, unit, _check_stability(stability))
            self._instruments[key] = found
        elif not isinstance(found, Histogram):
            raise SpecificationError(
                f"instrument {name!r} already registered as a {found.kind}"
            )
        elif found.bounds != tuple(float(b) for b in bounds):
            raise SpecificationError(
                f"histogram {name!r} already registered with different bounds"
            )
        return found

    def _instrument(self, name, labels, cls, stability):
        key = (name, labels)
        found = self._instruments.get(key)
        if found is None:
            found = cls(_check_stability(stability))
            self._instruments[key] = found
        elif not isinstance(found, cls):
            raise SpecificationError(
                f"instrument {name!r} already registered as a {found.kind}"
            )
        return found

    # -- recording ------------------------------------------------------------

    def inc(self, name: str, value: int = 1, *, stability: str = "exact", **labels: Any) -> None:
        self.counter(name, stability=stability, **labels).add(value)

    def gauge(self, name: str, value: float, *, stability: str = "volatile", **labels: Any) -> None:
        self.gauge_cell(name, stability=stability, **labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        n: int = 1,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
        unit: str = "",
        stability: str = "exact",
        **labels: Any,
    ) -> None:
        self.histogram(
            name, bounds=bounds, unit=unit, stability=stability, **labels
        ).observe(value, n)

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        return _SpanContext(self.spans, self.spans.open(name, attrs))

    def record_span(self, name: str, wall: float, **kwargs: Any) -> Span:
        return self.spans.record(name, wall, **kwargs)

    # -- reading --------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> int | float | None:
        """Current value of a counter/gauge, or None if never recorded."""

        found = self._instruments.get((name, _label_key(labels)))
        return None if found is None or isinstance(found, Histogram) else found.value

    def get_histogram(self, name: str, **labels: Any) -> Histogram | None:
        found = self._instruments.get((name, _label_key(labels)))
        return found if isinstance(found, Histogram) else None

    def instruments(self) -> Iterator[tuple[str, LabelKey, Counter | Gauge | Histogram]]:
        for (name, labels), instrument in sorted(self._instruments.items()):
            yield name, labels, instrument

    # -- merge / serialization -------------------------------------------------

    def merge(self, other: "Telemetry | Mapping[str, Any]") -> None:
        """Fold another registry (or its :meth:`to_dict` payload) into
        this one, exactly: counters and histogram buckets add, gauges
        take the max, spans append into the ring."""

        if isinstance(other, Telemetry):
            other = other.to_dict()
        self.merge_dict(other)

    def merge_dict(self, payload: Mapping[str, Any]) -> None:
        for record in payload.get("metrics", ()):
            name = record["name"]
            labels = {k: v for k, v in record.get("labels", ())}
            kind = record["kind"]
            stability = record.get("stability", "exact")
            if kind == "counter":
                self.counter(name, stability=stability, **labels).add(int(record["value"]))
            elif kind == "gauge":
                cell = self.gauge_cell(name, stability=stability, **labels)
                cell.set(max(cell.value, float(record["value"])))
            elif kind == "histogram":
                incoming = Histogram(
                    tuple(record["bounds"]), record.get("unit", ""), stability
                )
                incoming.counts = [int(n) for n in record["counts"]]
                incoming.total = float(record["total"])
                incoming.count = int(record["count"])
                incoming.vmin = record.get("min")
                incoming.vmax = record.get("max")
                self.histogram(
                    name,
                    bounds=incoming.bounds,
                    unit=incoming.unit,
                    stability=stability,
                    **labels,
                ).merge(incoming)
            else:
                raise SpecificationError(f"unknown instrument kind {kind!r}")
        trace = payload.get("spans")
        if trace:
            self.spans.extend(trace, int(payload.get("spans_dropped", 0)))
        self.merged_payloads += 1

    def to_dict(
        self, *, spans: bool = True, stability: tuple[str, ...] | None = None
    ) -> dict[str, Any]:
        """JSON-ready payload.  ``stability`` filters the metric records
        (e.g. ``("exact",)`` for the shard-invariant view used by the
        determinism property tests)."""

        metrics: list[dict[str, Any]] = []
        for name, labels, instrument in self.instruments():
            if stability is not None and instrument.stability not in stability:
                continue
            record: dict[str, Any] = {
                "name": name,
                "labels": [list(pair) for pair in labels],
                "kind": instrument.kind,
                "stability": instrument.stability,
            }
            if isinstance(instrument, Histogram):
                record.update(
                    bounds=list(instrument.bounds),
                    counts=list(instrument.counts),
                    total=instrument.total,
                    count=instrument.count,
                    min=instrument.vmin,
                    max=instrument.vmax,
                    unit=instrument.unit,
                )
            else:
                record["value"] = instrument.value
            metrics.append(record)
        payload: dict[str, Any] = {"version": 1, "metrics": metrics}
        if spans:
            payload["spans"] = self.spans.to_list()
            payload["spans_dropped"] = self.spans.dropped
        return payload

    def deterministic_dict(self) -> dict[str, Any]:
        """The shard-layout-invariant subset: exact metrics, no spans."""

        return self.to_dict(spans=False, stability=("exact",))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Telemetry":
        tel = cls()
        tel.merge_dict(payload)
        tel.merged_payloads = 0
        return tel


# -- module-level activation ---------------------------------------------------
#
# Instrumented code asks ``current()`` (one global read + None check when
# disabled) or calls the module-level helpers below, which no-op when
# nothing is active.  Activation nests as a stack so a capture inside an
# outer capture records into the inner registry only.

_ACTIVE: list[Telemetry] = []


def current() -> Telemetry | None:
    """The innermost active registry, or None when telemetry is off."""

    return _ACTIVE[-1] if _ACTIVE else None


def activate(tel: Telemetry) -> Telemetry:
    _ACTIVE.append(tel)
    return tel


def deactivate() -> Telemetry:
    if not _ACTIVE:
        raise SpecificationError("no active telemetry to deactivate")
    return _ACTIVE.pop()


@contextmanager
def capture(tel: Telemetry | None = None) -> Iterator[Telemetry]:
    """Activate a registry for the duration of the block.

    ``with capture() as tel: ...`` is the canonical way to turn
    telemetry on around an API call; pool workers use it to collect a
    payload that the parent merges back.
    """

    active = activate(tel if tel is not None else Telemetry())
    try:
        yield active
    finally:
        deactivate()


def call_captured(
    telemetry: bool, fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> tuple[Any, dict[str, Any] | None]:
    """Call ``fn``, under a fresh :func:`capture` when ``telemetry``.

    Returns ``(result, payload)``; ``payload`` is the captured
    registry's :meth:`Telemetry.to_dict` for the parent to merge, or
    ``None`` when telemetry is off.  Pool tasks run through this, so
    each task body is written once and opens its spans with
    :func:`span` (a null span when nothing is active).
    """

    if not telemetry:
        return fn(*args, **kwargs), None
    with capture() as tel:
        result = fn(*args, **kwargs)
    return result, tel.to_dict()


def span(name: str, **attrs: Any) -> _SpanContext | _NullSpan:
    tel = current()
    return _NULL_SPAN if tel is None else tel.span(name, **attrs)


def inc(name: str, value: int = 1, *, stability: str = "exact", **labels: Any) -> None:
    tel = current()
    if tel is not None:
        tel.inc(name, value, stability=stability, **labels)


def observe(name: str, value: float, **kwargs: Any) -> None:
    tel = current()
    if tel is not None:
        tel.observe(name, value, **kwargs)


def gauge(name: str, value: float, *, stability: str = "volatile", **labels: Any) -> None:
    tel = current()
    if tel is not None:
        tel.gauge(name, value, stability=stability, **labels)
