"""The sweep coordinator: lease cells out, stream rows in, lose nothing.

:class:`SweepCoordinator` owns one sweep run end to end: it lazily
expands the :class:`~repro.sweep.spec.SweepSpec` into content-addressed
:class:`~repro.sweep.distributed.units.WorkUnit`\\ s, serves them over
the length-prefixed JSON protocol to any number of worker connections
(local or remote), and folds completed rows into the fsync'd
:class:`~repro.sweep.store.RunStore` plus live streaming marginals.

The durability contract, end to end:

* a result batch is acknowledged only **after** its rows are fsync'd
  into the run store - a worker treats unacknowledged cells as not
  done, so delivery is at-least-once and the coordinator dedupes by
  cell key (rows are deterministic; recomputing is always safe);
* a worker that disconnects (SIGKILL closes its socket) or stops
  heartbeating (hang) forfeits its leases; the cells re-queue and the
  grid still completes - **any** kill schedule loses zero cells;
* ``resume=True`` decides reuse with the same
  :class:`~repro.sweep.store.ResumeIndex` rule as
  :func:`~repro.sweep.orchestrate.run_sweep`, reporting *why* every
  other cell re-ran (fingerprint drift vs. missing key).

Threading model: one accept loop (the ``serve`` caller's thread), one
daemon thread per worker connection, one reaper for lease expiry.  All
shared state - queue, lease table, completed rows, counters - sits
behind a single lock; the expensive per-cell work happens in worker
*processes*, so the lock is never held across anything slower than an
fsync.
"""

from __future__ import annotations

import collections
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import SpecificationError
from repro.fields import check_int, check_number
from repro.api.scenario import Scenario
from repro.obs import telemetry as obs
from repro.sweep.aggregate import MarginalAccumulator
from repro.sweep.orchestrate import SweepResult
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResumeIndex, RunStore
from repro.sweep.distributed.lease import LeaseTable
from repro.sweep.distributed.protocol import (
    PROTOCOL_VERSION,
    FramedSocket,
    ProtocolError,
)
from repro.sweep.distributed.units import WorkUnit, iter_units

#: Seconds a worker gets to say hello before the connection is dropped.
HELLO_TIMEOUT = 30.0
#: Suggested client back-off when the queue is momentarily empty.
WAIT_DELAY = 0.2
#: Default marginal metrics folded live per axis field.
MARGINAL_METRICS = ("sim_miss_rate", "sim_p95", "traffic_miss_rate")


@dataclass(frozen=True, kw_only=True)
class DistributedSweepResult(SweepResult):
    """Everything one distributed sweep run produced.

    The shared counters, :meth:`records` and :meth:`table` are
    :class:`~repro.sweep.orchestrate.SweepResult`'s, so summaries are
    comparable across executors.  ``solves`` sums the workers'
    *reported* cache counters - with a shared cache directory the
    single-flight lock makes each design solve exactly once
    cluster-wide.  The distributed story adds ``duplicates`` (rows
    recomputed after a lease bounced, then deduped), ``requeued``
    (cells taken back from dead or hung workers), ``lease_expiries``
    (the hung-worker subset), per-worker utilization, live marginals
    and per-cell failure reports.  ``rows`` is empty unless the
    coordinator kept them (``keep_rows=True``).
    """

    duplicates: int
    requeued: int
    lease_expiries: int
    lock_waits: int
    cross_hits: int
    worker_stats: dict[str, dict[str, Any]]
    marginals: dict[str, list[dict[str, Any]]]
    failures: tuple[dict[str, str], ...] = ()

    def summary(self) -> dict[str, Any]:
        """The shared counters plus a ``distributed`` block."""
        return {
            **super().summary(),
            "distributed": {
                "duplicates": self.duplicates,
                "requeued": self.requeued,
                "lease_expiries": self.lease_expiries,
                "lock_waits": self.lock_waits,
                "cross_hits": self.cross_hits,
                "failures": len(self.failures),
                "worker_stats": self.worker_stats,
            },
        }

    def to_dict(self) -> dict[str, Any]:
        """Summary plus live marginals (rows live in the store)."""
        return {"summary": self.summary(), "marginals": self.marginals}


class SweepCoordinator:
    """Serve one sweep's cells to workers until every row is home.

    Parameters mirror :func:`~repro.sweep.orchestrate.run_sweep` where
    they overlap; the distributed knobs:

    bind:
        ``(host, port)`` to listen on; port 0 picks an ephemeral port
        (read :attr:`address` after construction - the listener is
        bound and listening as soon as ``__init__`` returns, so workers
        may dial immediately even though ``serve`` starts later).
    lease_seconds:
        The heartbeat budget: a worker silent this long forfeits its
        leased cells to the queue.
    batch:
        Upper bound on units per grant (workers may ask for less).
        Batching amortizes one request/response round-trip and one
        store fsync over many cells - the knob that keeps a 10^5-cell
        grid coordinator-light.
    keep_rows:
        ``False`` drops completed rows after storing/aggregating them,
        bounding coordinator memory at huge grids (the store still has
        everything; ``result.rows`` is then empty).
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        store_path: str | Path | None = None,
        resume: bool = False,
        lease_seconds: float = 15.0,
        batch: int = 16,
        keep_rows: bool = True,
        marginal_metrics: tuple[str, ...] = MARGINAL_METRICS,
    ) -> None:
        if not isinstance(spec, SweepSpec):
            raise SpecificationError(
                f"SweepCoordinator expects a SweepSpec, got "
                f"{type(spec).__name__}"
            )
        if resume and store_path is None:
            raise SpecificationError(
                "resume requires a run store (store_path)"
            )
        check_number(lease_seconds, "lease_seconds")
        if lease_seconds <= 0:
            raise SpecificationError(
                f"lease_seconds must be > 0: {lease_seconds}"
            )
        check_int(batch, "batch", minimum=1)
        self.spec = spec
        self.lease_seconds = float(lease_seconds)
        self.batch = batch
        self._keep_rows = keep_rows
        self._resume = resume
        self._store = (
            None if store_path is None else RunStore(store_path)
        )

        self._lock = threading.Lock()
        self._queue: collections.deque[WorkUnit] = collections.deque()
        self._iter: Iterator[WorkUnit] | None = None
        self._iter_done = False
        self._leases = LeaseTable(lease_seconds=self.lease_seconds)
        self._total = spec.total_cells
        self._rows: dict[str, dict[str, Any]] = {}
        self._completed: set[str] = set()
        self._fingerprints: set[str] = set()
        self._failures: dict[str, str] = {}
        self._stored = ResumeIndex(())
        self._prepared = False
        self._executed = 0
        self._resumed = 0
        self._duplicates = 0
        self._requeued = 0
        self._worker_stats: dict[str, dict[str, Any]] = {}
        self._worker_connected: dict[str, float] = {}
        self._worker_finished: dict[str, float] = {}
        self._worker_serial = 0
        self._marginals = MarginalAccumulator(
            fields=tuple(axis.field for axis in spec.axes),
            metrics=marginal_metrics,
        )
        self._done = threading.Event()
        self._closed = False
        self._threads: list[threading.Thread] = []
        self.progress: Any = None  # callback(completed, total) or None

        self._listener = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind(bind)
        self._listener.listen(64)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` workers should dial."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def completed_count(self) -> int:
        """Completed cells so far (resumed + executed); thread-safe."""
        with self._lock:
            return len(self._completed)

    @property
    def total_cells(self) -> int:
        return self._total

    # ------------------------------------------------------------------
    # queue management

    def pending_cells(self) -> int:
        """An upper bound on the cells workers still have to run.

        Indexes the store for resume and queues the first batch, as
        :meth:`serve` does first: cells resumed from the store so far
        are not counted.  Zero means the grid is complete without any
        worker.
        """
        with self._lock:
            self._prepare()
            return self._total - len(self._completed) - len(self._failures)

    def _prepare(self) -> None:
        """Index the store for resume and queue the first batch (once;
        lock held).  An all-resumed or empty grid is then done."""
        if self._prepared:
            return
        self._prepared = True
        if self._store is not None:
            if not self._resume:
                self._store.backup_and_clear()
            else:
                with obs.span("sweep.dist.resume_load"):
                    self._stored = ResumeIndex(self._store.rows())
        self._refill(self.batch)
        if len(self._completed) + len(self._failures) >= self._total:
            self._done.set()

    def _try_resume(self, unit: WorkUnit) -> dict[str, Any] | None:
        """The stored row to reuse for ``unit``, if any.

        Stored rows hold *normalized* scenario payloads (they came out
        of ``ScenarioResult.to_dict``), while lazily expanded units are
        pre-normalization - so the unit's payload is normalized through
        one ``Scenario`` round-trip, which the index pays only for keys
        that actually have a stored row.
        """
        if not self._resume:
            return None
        return self._stored.reuse(
            unit.key,
            unit.index,
            lambda: Scenario.from_dict(unit.scenario).to_dict(),
        )

    def _refill(self, want: int) -> None:
        """Pull units from the lazy expansion until the queue can serve
        ``want`` units (or the grid is exhausted).  Lock held."""
        if self._iter is None:
            self._iter = iter_units(self.spec)
        while len(self._queue) < want and not self._iter_done:
            try:
                unit = next(self._iter)
            except StopIteration:
                self._iter_done = True
                break
            resumed = self._try_resume(unit)
            if resumed is not None:
                self._resumed += 1
                self._complete_row(unit.key, resumed, resumed_row=True)
                continue
            self._queue.append(unit)

    def _complete_row(
        self,
        key: str,
        row: dict[str, Any],
        *,
        resumed_row: bool = False,
    ) -> bool:
        """Record one finished cell.  Lock held.  False on duplicate."""
        if key in self._completed:
            return False
        self._completed.add(key)
        if not resumed_row:
            self._executed += 1
            # Designs among *executed* cells, as SweepResult counts.
            fingerprint = row.get("fingerprint")
            if isinstance(fingerprint, str):
                self._fingerprints.add(fingerprint)
        if self._keep_rows:
            self._rows[key] = row
        self._marginals.add_row(row)
        if len(self._completed) + len(self._failures) >= self._total:
            self._done.set()
        return True

    def _requeue(self, units: list[WorkUnit], reason: str) -> None:
        """Put forfeited leases back on the queue.  Lock held."""
        if not units:
            return
        for unit in units:
            if unit.key not in self._completed:
                self._queue.append(unit)
        self._requeued += len(units)
        obs.inc(
            "sweep.dist.requeued", len(units), stability="volatile",
            reason=reason,
        )

    # ------------------------------------------------------------------
    # protocol handlers (each runs on a connection thread)

    def _register_worker(self, hello: Mapping[str, Any]) -> str:
        base = str(hello.get("worker") or "worker")
        with self._lock:
            self._worker_serial += 1
            name = base
            if name in self._worker_stats:
                name = f"{base}#{self._worker_serial}"
            self._worker_stats[name] = {}
            self._worker_connected[name] = time.monotonic()
            obs.gauge("sweep.dist.workers", len(self._worker_stats))
        return name

    def _handle_request(
        self, worker: str, message: Mapping[str, Any]
    ) -> dict[str, Any]:
        want = message.get("max_units")
        if not isinstance(want, int) or want < 1:
            want = self.batch
        want = min(want, self.batch)
        with self._lock:
            self._leases.renew(worker)
            if self._done.is_set():
                return {"type": "done"}
            self._refill(want)
            units = []
            while self._queue and len(units) < want:
                unit = self._queue.popleft()
                if unit.key in self._completed:
                    continue
                self._leases.grant(unit, worker)
                units.append(unit)
            depth = len(self._queue)
            done = self._done.is_set()
        obs.gauge("sweep.dist.queue_depth", depth)
        if units:
            obs.inc(
                "sweep.dist.leases.granted", len(units),
                stability="volatile",
            )
            return {
                "type": "grant",
                "units": [unit.to_dict() for unit in units],
            }
        if done:
            return {"type": "done"}
        return {"type": "wait", "delay": WAIT_DELAY}

    def _handle_result(
        self, worker: str, message: Mapping[str, Any]
    ) -> dict[str, Any]:
        entries = message.get("units")
        if not isinstance(entries, list):
            raise ProtocolError("result message carries no units list")
        stats = message.get("stats")
        accepted: list[dict[str, Any]] = []
        duplicates = 0
        failed = 0
        with self._lock:
            self._leases.renew(worker)
            for entry in entries:
                uid = entry.get("uid")
                if isinstance(uid, str):
                    self._leases.complete(uid)
                error = entry.get("error")
                if error is not None:
                    key = str(entry.get("key"))
                    if key not in self._failures:
                        self._failures[key] = str(error)
                        failed += 1
                        obs.inc(
                            "sweep.dist.cells.failed",
                            stability="volatile",
                        )
                    if (
                        len(self._completed) + len(self._failures)
                        >= self._total
                    ):
                        self._done.set()
                    continue
                row = entry.get("row")
                if not isinstance(row, dict) or not isinstance(
                    row.get("key"), str
                ):
                    raise ProtocolError(
                        "result rows must be run-store row objects"
                    )
                if self._complete_row(row["key"], row):
                    accepted.append(row)
                else:
                    duplicates += 1
            self._duplicates += duplicates
            if isinstance(stats, dict):
                self._worker_stats[worker] = stats
            if self._store is not None and accepted:
                # Ack only after the fsync: the batch is durable first,
                # acknowledged second (at-least-once handoff).
                with obs.span(
                    "sweep.dist.store", rows=len(accepted)
                ):
                    self._store.append_many(accepted)
            completed = len(self._completed)
        obs.inc(
            "sweep.dist.cells.completed", len(accepted)
        )
        if duplicates:
            obs.inc(
                "sweep.dist.cells.duplicates", duplicates,
                stability="volatile",
            )
        if self.progress is not None:
            self.progress(completed, self._total)
        return {
            "type": "ack",
            "accepted": len(accepted),
            "duplicates": duplicates,
            "failed": failed,
        }

    def _handle_goodbye(
        self, worker: str, message: Mapping[str, Any]
    ) -> None:
        stats = message.get("stats")
        tel_payload = message.get("telemetry")
        tel = obs.current()
        with self._lock:
            if isinstance(stats, dict):
                self._worker_stats[worker] = stats
            self._worker_finished[worker] = time.monotonic()
        if tel is not None and isinstance(tel_payload, dict):
            tel.merge_dict(tel_payload)

    def _serve_connection(self, conn: socket.socket) -> None:
        framed = FramedSocket(conn)
        worker: str | None = None
        try:
            hello = framed.recv(timeout=HELLO_TIMEOUT)
            if hello is None or hello.get("type") != "hello":
                framed.send(
                    {"type": "error", "reason": "expected hello"}
                )
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                framed.send(
                    {
                        "type": "error",
                        "reason": (
                            f"protocol mismatch: coordinator speaks "
                            f"{PROTOCOL_VERSION}, worker "
                            f"{hello.get('protocol')!r}"
                        ),
                    }
                )
                return
            worker = self._register_worker(hello)
            tel = obs.current()
            framed.send(
                {
                    "type": "welcome",
                    "sweep": self.spec.name,
                    "protocol": PROTOCOL_VERSION,
                    "worker": worker,
                    "lease_seconds": self.lease_seconds,
                    "telemetry": tel is not None,
                }
            )
            while True:
                message = framed.recv(timeout=0.5)
                if message is None:
                    if self._closed:
                        break
                    continue
                kind = message.get("type")
                if kind == "heartbeat":
                    with self._lock:
                        self._leases.renew(worker)
                elif kind == "request":
                    framed.send(self._handle_request(worker, message))
                elif kind == "result":
                    framed.send(self._handle_result(worker, message))
                elif kind == "goodbye":
                    self._handle_goodbye(worker, message)
                    break
                else:
                    raise ProtocolError(
                        f"unexpected message type {kind!r}"
                    )
        except EOFError:
            # The worker vanished (crash, SIGKILL, network cut): its
            # leases go straight back on the queue.
            pass
        except ProtocolError as error:
            try:
                framed.send({"type": "error", "reason": str(error)})
            except OSError:
                pass
        except OSError:
            pass
        finally:
            if worker is not None:
                with self._lock:
                    units = self._leases.release_worker(worker)
                    self._requeue(units, reason="disconnect")
                    self._worker_finished.setdefault(
                        worker, time.monotonic()
                    )
            framed.close()

    # ------------------------------------------------------------------
    # lifecycle

    def _reap(self) -> None:
        interval = max(0.05, min(1.0, self.lease_seconds / 4))
        while not self._done.wait(interval):
            with self._lock:
                expired = self._leases.expire()
                self._requeue(expired, reason="lease_expired")
            if expired:
                obs.inc(
                    "sweep.dist.leases.expired", len(expired),
                    stability="volatile",
                )

    def serve(self) -> DistributedSweepResult:
        """Accept workers and serve cells until the grid completes.

        Blocks the calling thread.  Failed *cells* are reported in
        ``result.failures`` rather than raised, so a 99.9%-done
        overnight grid is not thrown away over one bad cell.
        """
        begin = time.perf_counter()
        with obs.span("sweep.dist.serve", sweep=self.spec.name):
            with self._lock:
                self._prepare()
            reaper = threading.Thread(
                target=self._reap, name="sweep-reaper", daemon=True
            )
            reaper.start()
            self._listener.settimeout(0.2)
            try:
                while not self._done.is_set():
                    try:
                        conn, _ = self._listener.accept()
                    except (socket.timeout, TimeoutError):
                        continue
                    except OSError:
                        break
                    conn.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(conn,),
                        daemon=True,
                    )
                    thread.start()
                    self._threads.append(thread)
            finally:
                self._closed = True
                # Give connected workers a grace window to collect
                # their `done` and say goodbye (their final stats and
                # telemetry ride on it), then tear down.
                deadline = time.monotonic() + 10.0
                for thread in self._threads:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    thread.join(timeout=remaining)
                reaper.join(timeout=2.0)
                self._listener.close()
        elapsed = time.perf_counter() - begin
        return self._result(elapsed)

    def close(self) -> None:
        """Abort serving (tests / signal handlers)."""
        self._closed = True
        self._done.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def _result(self, elapsed: float) -> DistributedSweepResult:
        with self._lock:
            solves = sum(
                stats.get("solves", 0)
                for stats in self._worker_stats.values()
                if isinstance(stats, dict)
            )
            lock_waits = sum(
                stats.get("lock_waits", 0)
                for stats in self._worker_stats.values()
                if isinstance(stats, dict)
            )
            cross_hits = sum(
                stats.get("cross_hits", 0)
                for stats in self._worker_stats.values()
                if isinstance(stats, dict)
            )
            obs.inc("sweep.dist.cells.resumed", self._resumed)
            obs.inc(
                "sweep.dist.cache.cross_hits", cross_hits,
                stability="volatile",
            )
            end = time.monotonic()
            worker_stats: dict[str, dict[str, Any]] = {}
            for name, stats in self._worker_stats.items():
                connected = self._worker_connected.get(name)
                finished = self._worker_finished.get(name, end)
                wall = (
                    None
                    if connected is None
                    else max(1e-9, finished - connected)
                )
                busy = (
                    stats.get("busy_seconds")
                    if isinstance(stats, dict)
                    else None
                )
                utilization = None
                if wall is not None and isinstance(busy, (int, float)):
                    utilization = min(1.0, busy / wall)
                    obs.gauge(
                        "sweep.dist.worker_utilization",
                        utilization,
                        worker=name,
                    )
                worker_stats[name] = {
                    **(stats if isinstance(stats, dict) else {}),
                    "wall_seconds": wall,
                    "utilization": utilization,
                }
            rows = tuple(
                sorted(
                    self._rows.values(),
                    key=lambda row: row.get("index", 0),
                )
            ) if self._keep_rows else ()
            failures = tuple(
                {"key": key, "error": error}
                for key, error in sorted(self._failures.items())
            )
            return DistributedSweepResult(
                spec=self.spec,
                rows=rows,
                cells=self._total,
                executed=self._executed,
                resumed=self._resumed,
                distinct_designs=len(self._fingerprints),
                solves=solves,
                cache_hits=max(0, self._executed - solves),
                workers=len(self._worker_stats),
                elapsed=elapsed,
                store_path=(
                    None
                    if self._store is None
                    else str(self._store.path)
                ),
                duplicates=self._duplicates,
                requeued=self._requeued,
                lease_expiries=self._leases.expired,
                lock_waits=lock_waits,
                cross_hits=cross_hits,
                rerun_drift=self._stored.drift,
                rerun_missing=self._stored.missing,
                worker_stats=worker_stats,
                marginals=self._marginals.summary(),
                failures=failures,
            )
