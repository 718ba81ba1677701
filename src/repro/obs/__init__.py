"""``repro.obs`` - dependency-free telemetry for the whole stack.

Counters, gauges, and fixed-bucket histograms that merge **exactly**
across shards and processes (the :class:`~repro.traffic.metrics.TrafficMetrics`
merge contract), structured trace spans with monotonic wall/CPU timing
and parent/child nesting, and exporters for JSON, JSONL traces, and the
Prometheus textfile format.

Nothing records unless a registry is active::

    from repro import obs

    with obs.capture() as tel:
        result = engine.run()
    print(tel.value("solve_cache.misses"))

Instrumented library code only ever calls :func:`obs.current` /
:func:`obs.span` / :func:`obs.inc`, which cost a single global read when
telemetry is off - the SoA hot path stays at its bench floor.  Telemetry
never touches an RNG and never alters event ordering: results are
bit-identical with telemetry on or off.
"""

from repro.obs.export import (
    embed,
    export_directory,
    load_directory,
    prometheus_text,
    write_json,
    write_prometheus,
    write_trace_jsonl,
)
from repro.obs.spans import DEFAULT_SPAN_CAPACITY, Span, SpanRing
from repro.obs.summarize import aggregate_span_tree, render_summary
from repro.obs.telemetry import (
    DEFAULT_BOUNDS,
    STABILITIES,
    TIME_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
    activate,
    call_captured,
    capture,
    current,
    deactivate,
    gauge,
    inc,
    observe,
    span,
)

__all__ = [
    "Telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SpanRing",
    "STABILITIES",
    "DEFAULT_BOUNDS",
    "TIME_BOUNDS",
    "DEFAULT_SPAN_CAPACITY",
    "current",
    "activate",
    "deactivate",
    "capture",
    "call_captured",
    "span",
    "inc",
    "observe",
    "gauge",
    "embed",
    "export_directory",
    "load_directory",
    "prometheus_text",
    "write_json",
    "write_prometheus",
    "write_trace_jsonl",
    "render_summary",
    "aggregate_span_tree",
]
