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
   the cached design and pays only its simulation - of which the fault
   draws and payload dispersals earlier cells made are shared too
   (:data:`SHARED`);
4. **fan out** - one shared process pool runs everything: batches of
   consecutive cells, one task each (see :func:`_batch_size`), *and*
   the traffic shards of cells with open-loop populations (when the
   pool is wider than the number of cells, each cell ships alone and
   its population is split into shards the way
   :func:`repro.traffic.simulate.simulate_traffic` would, and the
   merged metrics are bit-identical to a serial run);
5. **stream** - the serial loop appends each finished cell to the JSONL
   run store at once; the pool appends each finished batch with one
   group commit (:meth:`~repro.sweep.store.RunStore.append_many`: one
   lock, one fsync), in submission order.  A killed serial sweep re-runs
   at most the cell it was in; a killed pooled sweep re-runs its
   unfinished batches (at most ``workers + 1``, :data:`BATCH_MAX` cells
   each) and the finished ones still waiting behind the oldest of them.

Every cell runs through :func:`run_cell`, in the serial loop and in
the pool alike.  Batches are collected in submission order (the same
structural guarantee as :func:`repro.api.engine.run_scenarios`), so
rows come out in cell order no matter how workers interleave.  A cell
that raises stops the sweep the way it stops the serial loop: the rows
before it are stored, nothing after it is committed, and its error is
raised.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import SpecificationError
from repro.fields import check_int
from repro.memo import opened
from repro.api.engine import SHARED_DISPERSALS, BroadcastEngine
from repro.api.scenario import Scenario
from repro.obs import telemetry as obs
from repro.sim.faults import SHARED_DRAWS
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


#: The memos a sweep shares across its cells, by the counter their hits
#: go to: one uniform per distinct ``(fault seed, slot)`` and one AIDA
#: dispersal per distinct ``(file, payload, m, n_max)``.  They are open
#: only while :func:`run_sweep` runs cells - the serial loop's block,
#: or the life of a pool worker, and the pool lives for one sweep - so
#: traffic runs and servers outside a sweep never read them.
SHARED = {
    "sweep.shared_draws.hits": SHARED_DRAWS,
    "sweep.shared_dispersals.hits": SHARED_DISPERSALS,
}


def _open_shared() -> None:
    """Pool initializer: open the sweep's memos for the worker's life."""
    for memo in SHARED.values():
        memo.entries = {}


@contextmanager
def _shared_hits_counted() -> Iterator[None]:
    """Count the block's hits on the sweep's memos, with telemetry on.

    Hits are tallied per cell (or traffic shard), so with telemetry off
    a cell pays one global read for them.  Which cells share a table
    depends on how the pool hands out batches, so the counts are
    ``shape`` instruments.
    """
    tel = obs.current()
    if tel is None:
        yield
        return
    before = [memo.hits for memo in SHARED.values()]
    yield
    for (name, memo), hits in zip(SHARED.items(), before):
        tel.inc(name, memo.hits - hits, stability="shape")


def _lookup(
    scenario: Scenario,
    cache: SolveCache | None,
    fingerprint: str | None = None,
):
    """``(design, solved)`` for one scenario; ``cache=None`` solves."""
    if cache is None:
        return BroadcastEngine(scenario).design(), True
    design, hit = cache.design_for(scenario, fingerprint)
    return design, not hit


def run_cell(
    cell: SweepCell,
    cache: SolveCache | None,
    *,
    include_traffic: bool = True,
) -> tuple[dict[str, Any], bool]:
    """Run one cell's pipeline and shape its run-store row.

    The cell's design fingerprint is computed once: it keys the
    solve-cache lookup and is the row's ``fingerprint``.  The design
    comes from ``cache`` (``None`` solves directly - the
    ``use_cache=False`` arm) under a ``sweep.cell.solve`` span, and the
    engine runs with it injected under ``sweep.cell.simulate``.  Inside
    a sweep, the run reuses the draws and dispersals of earlier cells
    (:data:`SHARED`), and with telemetry on it counts those hits.
    Returns ``(row, solved)``, where ``solved`` says this call ran the
    solver.  The serial loop and the pool's cell task both run cells
    through here, so their rows agree field for field.
    """
    begin = time.perf_counter()
    with obs.span("sweep.cell.solve"):
        fingerprint = cell.scenario.design_fingerprint()
        design, solved = _lookup(cell.scenario, cache, fingerprint)
    engine = BroadcastEngine(cell.scenario, design=design)
    with obs.span("sweep.cell.simulate"), _shared_hits_counted():
        result = engine.run(include_traffic=include_traffic)
    row = {
        "key": cell.key,
        "index": cell.index,
        "overrides": [list(pair) for pair in cell.overrides],
        "fingerprint": fingerprint,
        "cache_hit": not solved,
        "elapsed": round(time.perf_counter() - begin, 6),
        "result": result.to_dict(),
    }
    return row, solved


def _pool_batch(
    cells: list[SweepCell],
    cache_dir: str | None,
    use_cache: bool,
    include_traffic: bool,
    queued_at: float,
) -> tuple[
    list[tuple[dict[str, Any], bool]], tuple[Exception, str] | None
]:
    """Pool task: consecutive cells (optionally minus traffic), in order.

    Returns each finished cell's ``(row, solved)`` and ``None``, or, at
    the first cell that raises, the pairs before it and that error with
    its traceback text: the parent commits what finished and raises what
    the serial loop would.
    """
    # The batch's wait on the pool, from submission to this task's start,
    # on the shared wall clock (time.time survives the process hop;
    # perf_counter does not).  It is recorded once, as a pre-measured
    # child of the first cell's span: later cells wait on their siblings,
    # not on the pool.
    waited = max(0.0, time.time() - queued_at)
    cache = _worker_cache(cache_dir, use_cache)
    done: list[tuple[dict[str, Any], bool]] = []
    for cell in cells:
        try:
            with obs.span("sweep.cell", key=cell.key):
                tel = obs.current()
                if tel is not None and cell is cells[0]:
                    tel.record_span("sweep.cell.queue", waited)
                done.append(
                    run_cell(cell, cache, include_traffic=include_traffic)
                )
        except Exception as error:
            # A traceback does not survive the pickle back to the
            # parent; its text goes along and becomes the error's cause,
            # as concurrent.futures chains one for a task that raises.
            import traceback

            return done, (error, traceback.format_exc())
    return done, None


class _RemoteTraceback(Exception):
    """A pool worker's formatted traceback, chained as the cause of the
    error its cell raised."""

    def __str__(self) -> str:
        return self.args[0]


def _pool_shard(
    scenario: Scenario, cache_dir: str, lo: int, hi: int
) -> tuple[TrafficMetrics, bool]:
    """Pool task: one traffic shard of one cell, and whether its design
    lookup solved (a shard may win the single-flight lock first)."""
    with obs.span("sweep.traffic_shard", lo=lo, hi=hi):
        design, solved = _lookup(scenario, _worker_cache(cache_dir, True))
        shard = BroadcastEngine(scenario, design=design)
        with _shared_hits_counted():
            return shard.run_traffic_shard(lo, hi), solved


def _submit_batch(
    pool: Any,
    batch: list[SweepCell],
    shards: int,
    cache_dir: str | None,
    use_cache: bool,
    telemetry: bool,
) -> tuple:
    """Put one batch on ``pool``, with its lone cell's traffic shards
    when ``shards > 1``.

    Returns ``(batch, task, shard_tasks, submitted_at, finish)``.  Only
    a lone cell of a grid with fewer pending cells than workers is ever
    sharded (:func:`_traffic_shards` is 1 otherwise).
    """
    lead = batch[0]
    task = pool.submit(
        obs.call_captured, telemetry, _pool_batch, batch, cache_dir,
        use_cache, shards == 1, time.time(),
    )
    shard_tasks = [
        pool.submit(
            obs.call_captured, telemetry, _pool_shard, lead.scenario,
            cache_dir, lo, hi,
        )
        for lo, hi in (
            shard_bounds(lead.scenario.traffic.clients, shards)
            if shards > 1 else ()
        )
    ]
    # Completion is stamped by done-callbacks, not by the in-order
    # collection loop: a cell collected late must not count earlier
    # cells' wall time as its own.
    finish: dict[str, float] = {}

    def _stamp(_future: Any) -> None:
        finish["at"] = time.perf_counter()

    for future in (task, *shard_tasks):
        future.add_done_callback(_stamp)
    return batch, task, shard_tasks, time.perf_counter(), finish


def _merge_shards(
    cell: SweepCell,
    row: dict[str, Any],
    shard_tasks: list[Any],
    submitted_at: float,
    finish: dict[str, float],
    tel: Any,
) -> int:
    """Fold a sharded cell's traffic into its row; return the shards'
    solves."""
    solves = 0
    parts = []
    for future in shard_tasks:
        (metrics, solved), shard_tel = future.result()
        solves += solved
        parts.append(metrics)
        if tel is not None and shard_tel is not None:
            tel.merge_dict(shard_tel)
    # Submission to last-task-completion covers both phases (they
    # overlap on the pool) without double-counting, and keeps
    # simulate_traffic's semantics: wall clock including pool overhead.
    traffic_elapsed = finish.get("at", time.perf_counter()) - submitted_at
    row["result"]["traffic"] = TrafficResult(
        spec=cell.scenario.traffic,
        metrics=TrafficMetrics.merged(parts),
        elapsed=traffic_elapsed,
        workers=len(shard_tasks),
        temporal=cell.scenario.temporal is not None,
    ).to_dict()
    row["elapsed"] = round(traffic_elapsed, 6)
    return solves


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep run produced.

    ``rows`` holds one run-store row per cell, in cell order, including
    rows reused from a resumed store.  The counters tell the caching
    story: ``distinct_designs`` fingerprints appeared among executed
    cells, ``solves`` counts the cells and traffic-shard tasks whose
    design lookup ran the solver this invocation, and ``cache_hits`` is
    ``executed - solves`` - the design fetches the cache absorbed.  With
    one shared cache, single-flight keeps ``solves <= distinct_designs``
    and both counts agree across serial and pooled runs of the same
    sweep.  (Each row's ``cache_hit`` flag is observational: the miss
    lands on whichever task solved its design, which in a pool depends
    on scheduling.)
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


#: Most cells one pool task carries.  On sweep-grid's 120-cell grid at
#: two workers (2 vCPUs, medians of six interleaved runs) the grid took
#: 0.36 s in tasks of one cell, 0.26 s in tasks of 8 and 0.25 s in tasks
#: of 15; tasks of 30 or 60 bought nothing more (0.23-0.25 s), and
#: larger batches lose more to a kill.
BATCH_MAX = 16


def _batch_size(pending: int, workers: int) -> int:
    """Consecutive cells per pool task for ``pending`` cells.

    Each task costs one round trip (pickle, queue, result wake-up) and
    one group commit, so cells travel in batches of up to
    :data:`BATCH_MAX`; a grid of at most ``BATCH_MAX * workers`` pending
    cells makes at most one batch per worker, all on the pool at once.
    """
    return min(BATCH_MAX, -(-pending // workers))


def _failed(task: Any) -> bool:
    """Whether a finished batch task ends the sweep: the task itself
    raised, or one of its cells did."""
    return task.exception() is not None or task.result()[0][1] is not None


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
        batches of cells and traffic shards on one shared process pool
        of that size.  Results are bit-identical either way.
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
            with opened(*SHARED.values()):
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
            from concurrent.futures import (
                FIRST_COMPLETED,
                ProcessPoolExecutor,
                wait,
            )

            size = _batch_size(len(pending), workers)
            todo = deque(
                pending[lo:lo + size] for lo in range(0, len(pending), size)
            )
            # Submitted batches not yet committed, in submission order,
            # and the tasks among them not yet seen to finish.
            window: deque[tuple] = deque()
            running: set[Any] = set()
            failed = False
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_open_shared
            ) as pool:
                while todo or window:
                    # Whenever a batch finishes, the pool is topped up to
                    # workers + 1 unfinished batches: one waits queued for
                    # whichever worker frees first, so no worker idles
                    # behind a slow batch at the head.  Once a finished
                    # batch reports an error nothing more is submitted,
                    # so a failing cell costs at most the batches out.
                    while todo and not failed and len(running) <= workers:
                        batch = todo.popleft()
                        window.append(_submit_batch(
                            pool, batch,
                            _traffic_shards(
                                batch[0], workers, len(pending), use_cache
                            ),
                            cache_dir_str, use_cache, tel is not None,
                        ))
                        running.add(window[-1][1])
                    # Finished batches are committed whole, in
                    # submission order.
                    while window and window[0][1].done():
                        batch, task, shard_tasks, submitted_at, finish = (
                            window.popleft()
                        )
                        running.discard(task)
                        (done, failure), batch_tel = task.result()
                        rows = []
                        for cell, (row, solved) in zip(batch, done):
                            solves += solved
                            busy_seconds += row["elapsed"]
                            if shard_tasks:
                                solves += _merge_shards(
                                    cell, row, shard_tasks, submitted_at,
                                    finish, tel,
                                )
                            rows.append(row)
                            rows_by_key[cell.key] = row
                        if store is not None and rows:
                            with obs.span(
                                "sweep.cell.store", cells=len(rows)
                            ):
                                store.append_many(rows)
                        if tel is not None and batch_tel is not None:
                            tel.merge_dict(batch_tel)
                        if failure is not None:
                            # The serial loop's outcome: the rows before
                            # the failing cell are stored, and its error
                            # raised.
                            pool.shutdown(cancel_futures=True)
                            error, trace = failure
                            raise error from _RemoteTraceback(trace)
                    finished, running = wait(
                        running, return_when=FIRST_COMPLETED
                    )
                    failed = failed or any(map(_failed, finished))
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
