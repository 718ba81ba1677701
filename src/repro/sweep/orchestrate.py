"""The sweep orchestrator: expand, memoize, fan out, stream, resume.

:func:`run_sweep` turns a :class:`~repro.sweep.spec.SweepSpec` into a
finished grid:

1. **expand** - the cross-product of axes becomes validated cells;
2. **resume** - cells whose keys are already in the run store are
   skipped (their stored rows are reused verbatim);
3. **memoize** - every distinct
   :meth:`~repro.api.Scenario.design_fingerprint` among the pending
   cells is solved exactly once into the content-addressed
   :class:`~repro.sweep.cache.SolveCache`; every other cell injects the
   cached design and pays only its simulation;
4. **fan out** - one shared process pool runs everything: cell
   pipelines *and* the traffic shards of cells with open-loop
   populations (when the pool is wider than the number of cells, each
   cell's population is split into shards the way
   :func:`repro.traffic.simulate.simulate_traffic` would, and the
   merged metrics are bit-identical to a serial run);
5. **stream** - each finished cell is appended to the JSONL run store
   immediately, so a killed sweep resumes where it stopped.

Futures are collected in submission order (the same structural guarantee
as :func:`repro.api.engine.run_scenarios`), so rows come out in cell
order no matter how workers interleave.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import SpecificationError
from repro.api.engine import BroadcastEngine
from repro.api.scenario import Scenario
from repro.obs import telemetry as obs
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.simulate import TrafficResult, shard_bounds
from repro.sweep.aggregate import render_table, tidy_rows
from repro.sweep.cache import SolveCache
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.store import RunStore


#: Process-local SolveCache instances, one per cache directory.  Pool
#: workers are reused across tasks, so keeping the instance alive keeps
#: its memory tier warm: each worker unpickles a given design once
#: instead of once per task.  Entries are content-addressed, so reuse
#: across sweeps in one process is always safe.
_WORKER_CACHES: dict[str, SolveCache] = {}


def _design_for(
    scenario: Scenario, cache_dir: str | None, use_cache: bool
):
    """Resolve one scenario's design through the (optional) cache."""
    if not use_cache:
        return BroadcastEngine(scenario).design(), False
    key = "" if cache_dir is None else cache_dir
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        cache = _WORKER_CACHES[key] = SolveCache(cache_dir)
    return cache.design_for(scenario)


def _warm_design(
    payload: Mapping[str, Any],
    cache_dir: str | None,
    use_cache: bool,
    telemetry: bool = False,
) -> tuple[bool, dict[str, Any] | None]:
    """Pool task: ensure one design is cached; hit=True when it already
    was.  With ``telemetry`` the worker captures its own registry (solver
    attempts, cache counters) and ships the payload back for the parent
    to merge - the "existing pool plumbing" route for child telemetry."""
    scenario = Scenario.from_dict(payload)
    if not telemetry:
        _, hit = _design_for(scenario, cache_dir, use_cache)
        return hit, None
    with obs.capture() as tel:
        with tel.span("sweep.warm_design"):
            _, hit = _design_for(scenario, cache_dir, use_cache)
    return hit, tel.to_dict()


def _run_cell(
    payload: Mapping[str, Any],
    cache_dir: str | None,
    use_cache: bool,
    include_traffic: bool,
    telemetry: bool = False,
    key: str | None = None,
    queued_at: float | None = None,
) -> tuple[bool, dict[str, Any], float, dict[str, Any] | None]:
    """Pool task: run one cell's pipeline (optionally minus traffic)."""
    begin = time.perf_counter()
    scenario = Scenario.from_dict(payload)
    if not telemetry:
        design, hit = _design_for(scenario, cache_dir, use_cache)
        engine = BroadcastEngine(scenario, design=design)
        result = engine.run(include_traffic=include_traffic)
        return hit, result.to_dict(), time.perf_counter() - begin, None
    with obs.capture() as tel:
        with tel.span("sweep.cell", key=key):
            if queued_at is not None:
                # Queue wait is measured on the shared wall clock
                # (time.time survives the process hop; perf_counter
                # does not) and recorded as a pre-measured child span.
                tel.record_span(
                    "sweep.cell.queue", max(0.0, time.time() - queued_at)
                )
            with tel.span("sweep.cell.solve"):
                design, hit = _design_for(scenario, cache_dir, use_cache)
            engine = BroadcastEngine(scenario, design=design)
            with tel.span("sweep.cell.simulate"):
                result = engine.run(include_traffic=include_traffic)
    return hit, result.to_dict(), time.perf_counter() - begin, tel.to_dict()


def _run_traffic_shard(
    payload: Mapping[str, Any],
    cache_dir: str | None,
    use_cache: bool,
    lo: int,
    hi: int,
    telemetry: bool = False,
) -> tuple[TrafficMetrics, dict[str, Any] | None]:
    """Pool task: one traffic shard of one cell."""
    scenario = Scenario.from_dict(payload)
    if not telemetry:
        design, _ = _design_for(scenario, cache_dir, use_cache)
        shard = BroadcastEngine(scenario, design=design)
        return shard.run_traffic_shard(lo, hi), None
    with obs.capture() as tel:
        with tel.span("sweep.traffic_shard", lo=lo, hi=hi):
            design, _ = _design_for(scenario, cache_dir, use_cache)
            shard = BroadcastEngine(scenario, design=design)
            metrics = shard.run_traffic_shard(lo, hi)
    return metrics, tel.to_dict()


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep run produced.

    ``rows`` holds one run-store row per cell, in cell order, including
    rows reused from a resumed store.  The counters tell the caching
    story: ``distinct_designs`` fingerprints appeared among executed
    cells, ``solves`` of them actually ran the solver this invocation,
    and ``cache_hits`` is ``executed - solves`` - the design fetches the
    cache absorbed - which is identical for serial and pooled runs of
    the same sweep.  (Each row's ``cache_hit`` flag is observational:
    the pool's warm wave solves before any cell runs, so there every
    cell observes a hit, while serially the first cell per design
    reports the miss.)
    """

    spec: SweepSpec
    rows: tuple[dict[str, Any], ...]
    cells: int
    executed: int
    resumed: int
    distinct_designs: int
    solves: int
    cache_hits: int
    workers: int
    elapsed: float
    store_path: str | None = None
    cache_dir: str | None = None
    #: Resumed runs say *why* each non-reused cell re-ran instead of
    #: silently re-executing: the stored row's scenario payload no
    #: longer matched (its design fingerprint drifted - e.g. the base
    #: scenario changed in a field no axis covers) ...
    rerun_drift: int = 0
    #: ... or the cell's key was not in the store at all (a new or
    #: never-finished cell).  Both are zero on non-resumed runs.
    rerun_missing: int = 0

    def records(self) -> list[dict[str, Any]]:
        """Tidy per-cell records (see :mod:`repro.sweep.aggregate`)."""
        return tidy_rows(self.rows)

    def table(self) -> str:
        """An aligned plain-text table of the tidy records."""
        return render_table(self.records())

    def summary(self) -> dict[str, Any]:
        """The headline counters as one JSON-able dict."""
        return {
            "sweep": self.spec.name,
            "cells": self.cells,
            "executed": self.executed,
            "resumed": self.resumed,
            "rerun": {
                "fingerprint_drift": self.rerun_drift,
                "missing_key": self.rerun_missing,
            },
            "distinct_designs": self.distinct_designs,
            "solves": self.solves,
            "cache_hits": self.cache_hits,
            "workers": self.workers,
            "elapsed": round(self.elapsed, 3),
            "store": self.store_path,
            "cache_dir": self.cache_dir,
        }

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able record: summary plus tidy records.

        The full deep rows live in the run store; re-serializing them
        here would dwarf the useful signal.
        """
        return {"summary": self.summary(), "records": self.records()}


def _row(
    cell: SweepCell,
    fingerprint: str,
    cache_hit: bool,
    elapsed: float,
    result: dict[str, Any],
) -> dict[str, Any]:
    return {
        "key": cell.key,
        "index": cell.index,
        "overrides": [list(pair) for pair in cell.overrides],
        "fingerprint": fingerprint,
        "cache_hit": cache_hit,
        "elapsed": round(elapsed, 6),
        "result": result,
    }


def _traffic_shards(
    cell: SweepCell, workers: int, pending: int, use_cache: bool
) -> int:
    """How many shards this cell's traffic population gets.

    Cell-level parallelism saturates the pool when there are at least as
    many pending cells as workers; only the leftover width is spent
    splitting populations.  With the solve-cache disabled every shard
    task would re-solve the cell's design from scratch, so populations
    stay unsharded there - the control arm means one solve per cell.
    """
    spec = cell.scenario.traffic
    if spec is None or not use_cache:
        return 1
    return max(1, min(spec.clients, workers // max(1, pending)))


def run_sweep(
    spec: SweepSpec,
    *,
    max_workers: int | None = None,
    store_path: str | Path | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    resume: bool = False,
) -> SweepResult:
    """Run every cell of a sweep; return rows, counters, and tables.

    Parameters
    ----------
    spec:
        The sweep specification (or grid) to run.
    max_workers:
        ``None`` or ``1`` runs serially in-process; a larger value runs
        cells and traffic shards on one shared process pool of that
        size.  Results are bit-identical either way.
    store_path:
        JSONL run-store path.  ``None`` keeps rows in memory only
        (``resume`` then has nothing to read and is rejected).  A
        fresh run over a populated store renames it to ``<name>.bak``
        first (one generation) rather than deleting finished rows.
    cache_dir:
        Directory for the persistent solve-cache tier.  ``None`` with a
        process pool uses a run-scoped temporary directory (still only
        one solve per distinct design *within* the run); ``None``
        serially uses the in-memory tier.
    use_cache:
        ``False`` disables design memoization entirely - every cell
        pays the solver.  (The benchmark's control arm.)
    resume:
        Skip cells whose keys are already in the run store; their
        stored rows are returned as-is.
    """
    if not isinstance(spec, SweepSpec):
        raise SpecificationError(
            f"run_sweep expects a SweepSpec, got {type(spec).__name__}"
        )
    if max_workers is not None:
        if not isinstance(max_workers, int) or isinstance(max_workers, bool):
            raise SpecificationError(
                f"max_workers must be a positive integer, got "
                f"{type(max_workers).__name__}: {max_workers!r}"
            )
        if max_workers < 1:
            raise SpecificationError(
                f"max_workers must be >= 1: {max_workers}"
            )
    if resume and store_path is None:
        raise SpecificationError(
            "resume requires a run store (store_path)"
        )

    begin = time.perf_counter()
    cells = spec.cells()
    fingerprints = {
        cell.key: cell.scenario.design_fingerprint() for cell in cells
    }

    store = None if store_path is None else RunStore(store_path)
    rows_by_key: dict[str, dict[str, Any]] = {}
    rerun_drift = 0
    rerun_missing = 0
    if store is not None:
        if resume:
            # A row is reusable only if it was produced by the *same*
            # concrete scenario - matching on the cell key alone would
            # silently resurrect stale rows after the spec's base
            # scenario changed in a field no axis covers.  Scenarios
            # are compared in JSON-normalized form (the store holds
            # pure JSON types).
            by_key = {cell.key: cell for cell in cells}
            expected = {
                cell.key: json.loads(json.dumps(cell.scenario.to_dict()))
                for cell in cells
            }
            drift_keys: set[str] = set()
            for row in store.rows():
                key = row.get("key")
                if key not in expected:
                    continue
                stored = (row.get("result") or {}).get("scenario")
                if stored != expected[key]:
                    # Stale: the stored row was produced by a different
                    # concrete scenario (so its fingerprint drifted);
                    # the cell re-runs, and the summary says why.
                    drift_keys.add(key)
                    continue
                # The key pins the axis values but not the position -
                # the grid may have gained cells since the row was
                # written, so the positional index is rewritten from
                # the current expansion.
                rows_by_key[key] = {**row, "index": by_key[key].index}
            # A later matching row rescues a key an older stale row
            # would have flagged (duplicate keys: last good row wins).
            drift_keys -= set(rows_by_key)
            rerun_drift = len(drift_keys)
            rerun_missing = (
                len(expected) - len(rows_by_key) - rerun_drift
            )
        else:
            # A fresh (non-resume) run over a populated store keeps one
            # .bak generation instead of silently destroying finished
            # rows - the forgot---resume foot-gun.
            store.backup_and_clear()
    resumed = len(rows_by_key)
    pending = [cell for cell in cells if cell.key not in rows_by_key]

    # The pool is NOT clamped to the cell count: leftover width beyond
    # one-worker-per-cell is spent splitting traffic populations into
    # shards (see _traffic_shards).
    workers = 1 if max_workers is None or not pending else max_workers
    temp_cache = None
    if use_cache and cache_dir is None and workers > 1:
        # The persistent tier is what crosses process boundaries; give
        # pool runs one scoped to this invocation when none was named.
        temp_cache = tempfile.mkdtemp(prefix="repro-solve-cache-")
        cache_dir = temp_cache
    cache_dir_str = None if cache_dir is None else str(cache_dir)

    tel = obs.current()
    busy_seconds = 0.0
    solves = 0
    try:
        if workers == 1:
            cache = SolveCache(cache_dir_str) if use_cache else None
            for cell in pending:
                cell_begin = time.perf_counter()
                with obs.span("sweep.cell", key=cell.key):
                    with obs.span("sweep.cell.solve"):
                        if cache is None:
                            design, hit = (
                                BroadcastEngine(cell.scenario).design(),
                                False,
                            )
                            solves += 1
                        else:
                            design, hit = cache.design_for(cell.scenario)
                    engine = BroadcastEngine(cell.scenario, design=design)
                    with obs.span("sweep.cell.simulate"):
                        result = engine.run()
                    row = _row(
                        cell,
                        fingerprints[cell.key],
                        hit,
                        time.perf_counter() - cell_begin,
                        result.to_dict(),
                    )
                    if store is not None:
                        with obs.span("sweep.cell.store"):
                            store.append(row)
                rows_by_key[cell.key] = row
                busy_seconds += time.perf_counter() - cell_begin
            if cache is not None:
                solves = cache.solves
        elif pending:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                if use_cache:
                    # Wave 0: solve each distinct design exactly once,
                    # in parallel, before any cell needs it.
                    distinct: dict[str, dict[str, Any]] = {}
                    for cell in pending:
                        distinct.setdefault(
                            fingerprints[cell.key],
                            cell.scenario.to_dict(),
                        )
                    warm = [
                        pool.submit(
                            _warm_design, payload, cache_dir_str, True,
                            tel is not None,
                        )
                        for payload in distinct.values()
                    ]
                    for future in warm:
                        warm_hit, warm_tel = future.result()
                        if not warm_hit:
                            solves += 1
                        if tel is not None and warm_tel is not None:
                            tel.merge_dict(warm_tel)
                # Wave 1: cell pipelines plus traffic shards, all on the
                # same pool, futures collected in submission order.
                submitted = []
                for cell in pending:
                    shards = _traffic_shards(
                        cell, workers, len(pending), use_cache
                    )
                    payload = cell.scenario.to_dict()
                    base = pool.submit(
                        _run_cell,
                        payload,
                        cache_dir_str,
                        use_cache,
                        shards == 1,
                        tel is not None,
                        cell.key,
                        time.time() if tel is not None else None,
                    )
                    shard_futures = []
                    if shards > 1:
                        bounds = shard_bounds(
                            cell.scenario.traffic.clients, shards
                        )
                        shard_futures = [
                            pool.submit(
                                _run_traffic_shard,
                                payload,
                                cache_dir_str,
                                use_cache,
                                lo,
                                hi,
                                tel is not None,
                            )
                            for lo, hi in bounds
                        ]
                    # Completion is stamped by done-callbacks, not by
                    # the in-order collection loop: a cell collected
                    # late must not count earlier cells' wall time as
                    # its own.
                    finish: dict[str, float] = {}

                    def _stamp(_future, box=finish) -> None:
                        box["at"] = time.perf_counter()

                    for future in (base, *shard_futures):
                        future.add_done_callback(_stamp)
                    submitted.append(
                        (cell, base, shard_futures, time.perf_counter(),
                         finish)
                    )
                if not use_cache:
                    solves = len(pending)
                for (
                    cell, base, shard_futures, submit_time, finish
                ) in submitted:
                    hit, result, cell_elapsed, cell_tel = base.result()
                    if tel is not None and cell_tel is not None:
                        tel.merge_dict(cell_tel)
                    busy_seconds += cell_elapsed
                    if shard_futures:
                        traffic_spec = cell.scenario.traffic
                        parts = []
                        for future in shard_futures:
                            metrics, shard_tel = future.result()
                            parts.append(metrics)
                            if tel is not None and shard_tel is not None:
                                tel.merge_dict(shard_tel)
                        merged = TrafficMetrics.merged(parts)
                        # Submission to last-task-completion covers both
                        # phases (they overlap on the pool) without
                        # double-counting, and keeps simulate_traffic's
                        # semantics: wall clock including pool overhead.
                        traffic_elapsed = (
                            finish.get("at", time.perf_counter())
                            - submit_time
                        )
                        result["traffic"] = TrafficResult(
                            spec=traffic_spec,
                            metrics=merged,
                            elapsed=traffic_elapsed,
                            workers=len(shard_futures),
                            temporal=cell.scenario.temporal is not None,
                        ).to_dict()
                        cell_elapsed = traffic_elapsed
                    row = _row(
                        cell,
                        fingerprints[cell.key],
                        hit,
                        cell_elapsed,
                        result,
                    )
                    if store is not None:
                        with obs.span("sweep.cell.store", key=cell.key):
                            store.append(row)
                    rows_by_key[cell.key] = row
    finally:
        if temp_cache is not None:
            shutil.rmtree(temp_cache, ignore_errors=True)

    elapsed = time.perf_counter() - begin
    if tel is not None:
        tel.inc("sweep.cells.executed", len(pending))
        tel.inc("sweep.cells.resumed", resumed)
        tel.gauge("sweep.workers", workers)
        if elapsed > 0:
            tel.gauge("sweep.rows_per_sec", len(pending) / elapsed)
            tel.gauge(
                "sweep.worker_utilization",
                min(1.0, busy_seconds / (workers * elapsed)),
            )

    return SweepResult(
        spec=spec,
        rows=tuple(rows_by_key[cell.key] for cell in cells),
        cells=len(cells),
        executed=len(pending),
        resumed=resumed,
        distinct_designs=len(
            {fingerprints[cell.key] for cell in pending}
        ),
        solves=solves,
        cache_hits=max(0, len(pending) - solves),
        workers=workers,
        elapsed=elapsed,
        store_path=None if store is None else str(store.path),
        cache_dir=None if temp_cache is not None else cache_dir_str,
        rerun_drift=rerun_drift,
        rerun_missing=rerun_missing,
    )
