"""Tidy aggregation of sweep rows.

A run store holds one deep JSON row per cell (the full
:meth:`~repro.api.engine.ScenarioResult.to_dict` record).  Analysis
wants the opposite shape: flat, *tidy* records - one dict per cell, one
column per axis value or headline metric - ready for a table in
EXPERIMENTS.md or a dataframe.  This module produces them:

* :func:`tidy_rows` - flatten rows into tidy records (axis columns plus
  design / simulation / traffic / delay metrics);
* :func:`marginals` - collapse a tidy table along one axis (mean over
  the other axes), the "delay vs. error count" view of Figure 7;
* :func:`render_table` - an aligned plain-text table of any record
  list.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SpecificationError

#: Metric columns in display order (tables show the ones present).
METRIC_COLUMNS = (
    "bandwidth",
    "density",
    "method",
    "bandwidth_overhead",
    "sim_miss_rate",
    "sim_p50",
    "sim_p95",
    "sim_p99",
    "sim_bounded",
    "traffic_miss_rate",
    "traffic_abort_rate",
    "traffic_deadline_miss",
    "traffic_consistency",
    "traffic_mean_age",
    "traffic_p50",
    "traffic_p95",
    "traffic_p99",
    "channels_k",
    "channel_util_max",
    "channel_switches",
    "quorum_ok_rate",
    "quorum_mean_latency",
    "worst_delay",
    "cache_hit",
    "elapsed",
)


def _necessary_bandwidth(scenario: Mapping[str, Any]) -> float | None:
    """The trivial lower bound ``sum (m_i + r_i) / T_i``, from a payload.

    ``None`` for generalized catalogues (latencies are already slots -
    there is no bandwidth to compare against).
    """
    files = scenario.get("files") or []
    if any("latency_vector" in entry for entry in files):
        return None
    redundancy = scenario.get("redundancy")
    mode = scenario.get("mode")

    def budget(entry: Mapping[str, Any]) -> int:
        if redundancy is not None and mode is not None:
            budgets = redundancy.get("budgets", {}).get(mode, {})
            return budgets.get(entry["name"], redundancy.get("default", 0))
        return entry.get("fault_budget", 0)

    try:
        return sum(
            (entry["blocks"] + budget(entry)) / entry["latency"]
            for entry in files
        )
    except (KeyError, TypeError, ZeroDivisionError):
        return None


def tidy_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """Flatten one run-store row into a tidy record."""
    record: dict[str, Any] = {"cell": row.get("index")}
    for field, value in row.get("overrides") or ():
        record[field] = value
    result = row.get("result") or {}
    stats = result.get("stats") or {}
    record["bandwidth"] = stats.get("bandwidth")
    record["density"] = stats.get("density")
    record["method"] = stats.get("method")
    necessary = _necessary_bandwidth(result.get("scenario") or {})
    bandwidth = stats.get("bandwidth")
    record["bandwidth_overhead"] = (
        (bandwidth - necessary) / necessary
        if bandwidth is not None and necessary
        else None
    )
    channels = stats.get("channels")
    if channels:
        record["channels_k"] = len(channels)
        utilizations = [
            entry.get("utilization")
            for entry in channels
            if entry.get("utilization") is not None
        ]
        if utilizations:
            record["channel_util_max"] = max(utilizations)
    simulation = result.get("simulation")
    if simulation is not None:
        latency = simulation.get("latency") or {}
        record["sim_miss_rate"] = simulation.get("deadline_miss_rate")
        record["sim_p50"] = latency.get("p50")
        record["sim_p95"] = latency.get("p95")
        record["sim_p99"] = latency.get("p99")
        record["sim_bounded"] = latency.get("bounded")
    traffic = result.get("traffic")
    if traffic is not None:
        latency = traffic.get("latency") or {}
        record["traffic_miss_rate"] = traffic.get("miss_rate")
        record["traffic_abort_rate"] = traffic.get("abort_rate")
        record["traffic_deadline_miss"] = traffic.get("deadline_miss_rate")
        record["traffic_p50"] = latency.get("p50")
        record["traffic_p95"] = latency.get("p95")
        record["traffic_p99"] = latency.get("p99")
        temporal = traffic.get("temporal")
        if temporal is not None:
            record["traffic_consistency"] = temporal.get(
                "consistency_rate"
            )
            record["traffic_mean_age"] = (temporal.get("age") or {}).get(
                "mean"
            )
        channel_block = traffic.get("channels")
        if channel_block is not None:
            record["channel_switches"] = channel_block.get("switches")
            quorum = channel_block.get("quorum")
            if quorum is not None:
                record["quorum_ok_rate"] = quorum.get("success_rate")
                record["quorum_mean_latency"] = (
                    quorum.get("latency") or {}
                ).get("mean")
    delay_table = result.get("delay_table") or []
    if delay_table:
        record["worst_delay"] = max(
            entry.get("delay", 0) for entry in delay_table
        )
    record["cache_hit"] = row.get("cache_hit")
    record["elapsed"] = row.get("elapsed")
    return record


def tidy_rows(rows: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Flatten run-store rows into tidy records, preserving order."""
    return [tidy_row(row) for row in rows]


def marginals(
    records: Sequence[Mapping[str, Any]],
    field: str,
    metrics: Sequence[str],
) -> list[dict[str, Any]]:
    """Collapse a tidy table along one axis.

    Groups ``records`` by their ``field`` value and reports the group
    size plus the mean of each requested metric (ignoring cells where
    the metric is absent, ``None``, or non-numeric - e.g. unbounded
    rows).  Output is sorted by the axis value; this is the per-axis
    view figures plot (delay vs. error count, miss rate vs. load).
    """
    accumulator = MarginalAccumulator((field,), metrics)
    for record in records:
        accumulator.add_record(record)
    return accumulator.summary()[field]


def _sort_key(value: Any) -> tuple:
    """Numbers sort numerically, everything else lexically, None last."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, value, "")
    if value is None:
        return (2, 0, "")
    return (1, 0, str(value))


class MarginalAccumulator:
    """Streaming per-axis marginals, one row at a time.

    Rows fold in as they arrive, so a caller streaming a store can show
    "mean miss rate by fault probability so far" without keeping the
    rows or re-reading them - re-running :func:`tidy_rows` +
    :func:`marginals` per update would be quadratic.  :func:`marginals`
    is one pass of it over one field.  :meth:`summary` produces, per
    axis field, the record list :func:`marginals` returns for the same
    records.
    """

    def __init__(
        self, fields: Sequence[str], metrics: Sequence[str]
    ) -> None:
        if not metrics:
            raise SpecificationError("at least one metric is required")
        self._fields = tuple(fields)
        self._metrics = tuple(metrics)
        self.rows = 0
        # Grouped under a canonical token so unhashable axis values
        # (e.g. a scheduler-policy list) group correctly too.
        # field -> token -> (value, cells, {metric: (sum, count)})
        self._groups: dict[
            str, dict[str, tuple[Any, int, dict[str, tuple[float, int]]]]
        ] = {field: {} for field in fields}

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Fold one raw run-store row in (tidied internally)."""
        self.add_record(tidy_row(row))

    def add_record(self, record: Mapping[str, Any]) -> None:
        """Fold one already-tidy record in."""
        self.rows += 1
        for field in self._fields:
            value = record.get(field)
            token = json.dumps(value, sort_keys=True, default=str)
            groups = self._groups[field]
            stored = groups.get(token)
            if stored is None:
                stored = (value, 0, {})
            value, cells, sums = stored
            for metric in self._metrics:
                number = record.get(metric)
                if isinstance(number, (int, float)) and not isinstance(
                    number, bool
                ):
                    total, count = sums.get(metric, (0.0, 0))
                    sums[metric] = (total + number, count + 1)
            groups[token] = (value, cells + 1, sums)

    def summary(self) -> dict[str, list[dict[str, Any]]]:
        """Per-field marginal tables over everything folded in so far."""
        out: dict[str, list[dict[str, Any]]] = {}
        for field, groups in self._groups.items():
            table = []
            for value, cells, sums in sorted(
                groups.values(), key=lambda item: _sort_key(item[0])
            ):
                entry: dict[str, Any] = {field: value, "cells": cells}
                for metric in self._metrics:
                    total, count = sums.get(metric, (0.0, 0))
                    entry[f"mean_{metric}"] = (
                        total / count if count else None
                    )
                table.append(entry)
            out[field] = table
        return out


def _format(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(
    records: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
) -> str:
    """An aligned plain-text table of tidy records.

    ``columns=None`` uses the union of keys over *all* records in
    first-seen order (a metric only later cells populate - e.g.
    ``worst_delay`` when ``delay_errors`` is itself an axis starting at
    ``null`` - still gets its column), dropping columns no record
    populates.
    """
    if not records:
        return "(no rows)"
    if columns is None:
        seen: dict[str, None] = {}
        for record in records:
            for column in record:
                seen.setdefault(column)
        columns = [
            column
            for column in seen
            if any(record.get(column) is not None for record in records)
        ]
    header = list(columns)
    body = [
        [_format(record.get(column)) for column in columns]
        for record in records
    ]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body))
        for i in range(len(header))
    ]
    lines = [
        " | ".join(title.rjust(w) for title, w in zip(header, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines.extend(
        " | ".join(cell.rjust(w) for cell, w in zip(line, widths))
        for line in body
    )
    return "\n".join(lines)
