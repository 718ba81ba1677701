"""The sweep orchestrator: expand, resume, fan out, stream.

:func:`run_sweep` turns a :class:`~repro.sweep.spec.SweepSpec` into a
finished grid:

1. **expand** - the cross-product of axes becomes validated cells;
2. **resume** - cells with a stored row from the same concrete scenario
   are skipped (their stored rows are reused verbatim; the rule is
   :class:`~repro.sweep.store.ResumeIndex`);
3. **memoize** - every cell resolves its design through the
   content-addressed :class:`~repro.sweep.cache.SolveCache`; pool
   workers share its disk tier, whose single-flight lock solves each
   distinct :meth:`~repro.api.Scenario.design_fingerprint` exactly once
   however many tasks miss it together, and every other cell injects
   the cached design and pays only its simulation;
4. **fan out** - one shared process pool runs everything: cell
   pipelines *and* the traffic shards of cells with open-loop
   populations (when the pool is wider than the number of cells, each
   cell's population is split into shards the way
   :func:`repro.traffic.simulate.simulate_traffic` would, and the
   merged metrics are bit-identical to a serial run);
5. **stream** - each finished cell is appended to the JSONL run store
   immediately, so a killed sweep resumes where it stopped.

Every cell runs through :func:`run_cell`, here and in the distributed
worker alike.  Futures are collected in submission order (the same
structural guarantee as :func:`repro.api.engine.run_scenarios`), so
rows come out in cell order no matter how workers interleave.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import SpecificationError
from repro.fields import check_int
from repro.api.engine import BroadcastEngine
from repro.api.scenario import Scenario
from repro.obs import telemetry as obs
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.simulate import TrafficResult, shard_bounds
from repro.sweep.aggregate import render_table, tidy_rows
from repro.sweep.cache import SolveCache
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.store import ResumeIndex, RunStore


#: Process-local SolveCache instances, one per cache directory.  Pool
#: workers are reused across tasks, so keeping the instance alive keeps
#: its memory tier warm: each worker unpickles a given design once
#: instead of once per task.  Entries are content-addressed, so reuse
#: across sweeps in one process is always safe.
_WORKER_CACHES: dict[str, SolveCache] = {}


def _worker_cache(
    cache_dir: str | None, use_cache: bool
) -> SolveCache | None:
    """This pool worker's cache for ``cache_dir`` (``None`` when off)."""
    if not use_cache:
        return None
    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = _WORKER_CACHES[cache_dir] = SolveCache(cache_dir)
    return cache


def _lookup(scenario: Scenario, cache: SolveCache | None):
    """``(design, solved)`` for one scenario; ``cache=None`` solves."""
    if cache is None:
        return BroadcastEngine(scenario).design(), True
    design, hit = cache.design_for(scenario)
    return design, not hit


def run_cell(
    cell: SweepCell,
    cache: SolveCache | None,
    *,
    include_traffic: bool = True,
) -> tuple[dict[str, Any], bool]:
    """Run one cell's pipeline and shape its run-store row.

    The design comes from ``cache`` (``None`` solves directly - the
    ``use_cache=False`` arm) under a ``sweep.cell.solve`` span, and the
    engine runs with it injected under ``sweep.cell.simulate``.  Returns
    ``(row, solved)``, where ``solved`` says this call ran the solver.
    The serial loop, the pool's cell task and the distributed worker
    all run cells through here, so their rows agree field for field.
    """
    begin = time.perf_counter()
    with obs.span("sweep.cell.solve"):
        design, solved = _lookup(cell.scenario, cache)
    engine = BroadcastEngine(cell.scenario, design=design)
    with obs.span("sweep.cell.simulate"):
        result = engine.run(include_traffic=include_traffic)
    row = {
        "key": cell.key,
        "index": cell.index,
        "overrides": [list(pair) for pair in cell.overrides],
        "fingerprint": cell.scenario.design_fingerprint(),
        "cache_hit": not solved,
        "elapsed": round(time.perf_counter() - begin, 6),
        "result": result.to_dict(),
    }
    return row, solved


def _pool_cell(
    cell: SweepCell,
    cache_dir: str | None,
    use_cache: bool,
    include_traffic: bool,
    queued_at: float,
) -> tuple[dict[str, Any], bool]:
    """Pool task: one cell (optionally minus traffic) on this worker."""
    with obs.span("sweep.cell", key=cell.key):
        tel = obs.current()
        if tel is not None:
            # Queue wait is measured on the shared wall clock
            # (time.time survives the process hop; perf_counter does
            # not) and recorded as a pre-measured child span.
            tel.record_span(
                "sweep.cell.queue", max(0.0, time.time() - queued_at)
            )
        return run_cell(
            cell,
            _worker_cache(cache_dir, use_cache),
            include_traffic=include_traffic,
        )


def _pool_shard(
    scenario: Scenario, cache_dir: str, lo: int, hi: int
) -> tuple[TrafficMetrics, bool]:
    """Pool task: one traffic shard of one cell, and whether its design
    lookup solved (a shard may win the single-flight lock first)."""
    with obs.span("sweep.traffic_shard", lo=lo, hi=hi):
        design, solved = _lookup(scenario, _worker_cache(cache_dir, True))
        shard = BroadcastEngine(scenario, design=design)
        return shard.run_traffic_shard(lo, hi), solved


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep run produced.

    ``rows`` holds one run-store row per cell, in cell order, including
    rows reused from a resumed store.  The counters tell the caching
    story: ``distinct_designs`` fingerprints appeared among executed
    cells, ``solves`` counts the cell and traffic-shard tasks whose
    design lookup ran the solver this invocation, and ``cache_hits`` is
    ``executed - solves`` - the design fetches the cache absorbed.  With
    one shared cache, single-flight keeps ``solves <= distinct_designs``
    and both counts agree across serial, pooled and distributed runs of
    the same sweep.  (Each row's ``cache_hit`` flag is observational:
    the miss lands on whichever task solved its design, which in a pool
    depends on scheduling.)
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
        Reuse each cell's stored row when one was produced by the same
        concrete scenario (:class:`~repro.sweep.store.ResumeIndex`);
        reused rows are returned as-is.
    """
    if not isinstance(spec, SweepSpec):
        raise SpecificationError(
            f"run_sweep expects a SweepSpec, got {type(spec).__name__}"
        )
    if max_workers is not None:
        check_int(max_workers, "max_workers", minimum=1)
    if resume and store_path is None:
        raise SpecificationError(
            "resume requires a run store (store_path)"
        )

    begin = time.perf_counter()
    cells = spec.cells()

    store = None if store_path is None else RunStore(store_path)
    rows_by_key: dict[str, dict[str, Any]] = {}
    rerun_drift = 0
    rerun_missing = 0
    if store is not None:
        if resume:
            stored = ResumeIndex(store.rows())
            for cell in cells:
                row = stored.reuse(
                    cell.key, cell.index, cell.scenario.to_dict
                )
                if row is not None:
                    rows_by_key[cell.key] = row
            rerun_drift, rerun_missing = stored.drift, stored.missing
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
            # A fresh cache per call: its memory tier memoizes within
            # this sweep even when no directory is named.
            cache = SolveCache(cache_dir_str) if use_cache else None
            for cell in pending:
                cell_begin = time.perf_counter()
                with obs.span("sweep.cell", key=cell.key):
                    row, solved = run_cell(cell, cache)
                    if store is not None:
                        with obs.span("sweep.cell.store"):
                            store.append(row)
                solves += solved
                rows_by_key[cell.key] = row
                busy_seconds += time.perf_counter() - cell_begin
        elif pending:
            from concurrent.futures import ProcessPoolExecutor

            telemetry = tel is not None
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # Cell pipelines plus traffic shards, all on the same
                # pool, futures collected in submission order.
                submitted = []
                for cell in pending:
                    shards = _traffic_shards(
                        cell, workers, len(pending), use_cache
                    )
                    base = pool.submit(
                        obs.call_captured, telemetry, _pool_cell, cell,
                        cache_dir_str, use_cache, shards == 1, time.time(),
                    )
                    shard_futures = []
                    if shards > 1:
                        bounds = shard_bounds(
                            cell.scenario.traffic.clients, shards
                        )
                        shard_futures = [
                            pool.submit(
                                obs.call_captured, telemetry, _pool_shard,
                                cell.scenario, cache_dir_str, lo, hi,
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
                for (
                    cell, base, shard_futures, submit_time, finish
                ) in submitted:
                    (row, solved), cell_tel = base.result()
                    solves += solved
                    if tel is not None and cell_tel is not None:
                        tel.merge_dict(cell_tel)
                    busy_seconds += row["elapsed"]
                    if shard_futures:
                        parts = []
                        for future in shard_futures:
                            (metrics, solved), shard_tel = future.result()
                            solves += solved
                            parts.append(metrics)
                            if tel is not None and shard_tel is not None:
                                tel.merge_dict(shard_tel)
                        # Submission to last-task-completion covers both
                        # phases (they overlap on the pool) without
                        # double-counting, and keeps simulate_traffic's
                        # semantics: wall clock including pool overhead.
                        traffic_elapsed = (
                            finish.get("at", time.perf_counter())
                            - submit_time
                        )
                        row["result"]["traffic"] = TrafficResult(
                            spec=cell.scenario.traffic,
                            metrics=TrafficMetrics.merged(parts),
                            elapsed=traffic_elapsed,
                            workers=len(shard_futures),
                            temporal=cell.scenario.temporal is not None,
                        ).to_dict()
                        row["elapsed"] = round(traffic_elapsed, 6)
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
            {rows_by_key[cell.key]["fingerprint"] for cell in pending}
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
