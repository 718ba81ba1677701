"""Verdicts between two result files: better, same, worse or unresolved.

For every end-to-end metric of every workload present in both files:

* the simulated outcome (``EXACT``) must match exactly - a different
  value is a regression, since a speed change must not move results;
* otherwise the change's median is compared with the parent's against
  the metric's ``bound`` from ``BENCHMARK.json``.  When either side's
  spread (quartile distance over median) exceeds the bound the verdict
  is unresolved, unless the quartile ranges do not overlap.

Several rows of one workload in a file (repeated runs) are pooled: the
median and quartiles are then taken over the rows' values.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

#: Deterministic for a given seed: identical runs must agree exactly.
EXACT = frozenset({"mean_slots", "p99_slots", "ontime_rate"})


def _pooled(rows: list[dict[str, Any]], name: str) -> dict[str, float]:
    entries = [row["metrics"][name] for row in rows]
    if len(entries) == 1:
        return entries[0]
    values = [entry["value"] for entry in entries]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def verdict(parent: dict[str, float], change: dict[str, float],
            metric: dict[str, Any]) -> tuple[str, float]:
    """``(verdict, relative change)``; positive change means worse."""
    base = parent["value"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (change["value"] - base) / base if base else 0.0
    if metric["name"] in EXACT:
        return ("same" if change["value"] == base else "worse"), worse_by
    bound = metric["bound"]
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["value"]) if side["value"] else 0.0
        for side in (parent, change)
    )
    apart = change["q1"] > parent["q3"] or change["q3"] < parent["q1"]
    if spread > bound and not apart:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def _rows(path: str) -> dict[str, list[dict[str, Any]]]:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    grouped: dict[str, list[dict[str, Any]]] = {}
    for row in record["rows"]:
        grouped.setdefault(row["workload"], []).append(row)
    return grouped


def compare_files(parent_path: str, change_path: str,
                  benchmark: dict[str, Any]) -> int:
    """Print one verdict per (metric, workload); 1 if any regressed."""
    parent, change = _rows(parent_path), _rows(change_path)
    regressed = False
    print(f"{'workload':<18} {'metric':<14} {'parent':>14} {'change':>14}"
          f" {'worse by':>9}  verdict")
    for workload in [name for name in parent if name in change]:
        p_rows, c_rows = parent[workload], change[workload]
        if not all(row["correct"] for row in c_rows):
            print(f"{workload:<18} {'checks':<14} {'':>14} {'':>14} {'':>9}"
                  f"  worse")
            regressed = True
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not all(name in row.get("metrics", {}) for row in p_rows + c_rows):
                continue
            p, c = _pooled(p_rows, name), _pooled(c_rows, name)
            outcome, worse_by = verdict(p, c, metric)
            regressed |= outcome == "worse"
            print(f"{workload:<18} {name:<14} {p['value']:>14.6g}"
                  f" {c['value']:>14.6g} {worse_by:>+9.2%}  {outcome}")
    print("regression" if regressed else "no regression")
    return 1 if regressed else 0
