"""The sweep worker: lease cells, run them, stream the rows home.

One worker is one process running :func:`run_worker`: dial the
coordinator, say hello, then loop *request -> grant -> compute -> result
-> ack* until the coordinator says ``done``.  A daemon heartbeat thread
keeps the worker's leases alive across long solves (the frame lock in
:class:`~repro.sweep.distributed.protocol.FramedSocket` makes the shared
socket safe).

Rows are produced by the serial orchestrator's own cell runner,
:func:`~repro.sweep.orchestrate.run_cell`: the unit's payload is
validated into a :class:`~repro.api.Scenario` and the design is resolved
through the shared :class:`~repro.sweep.cache.SolveCache` (whose disk
tier plus single-flight lock is what makes each distinct design solve
exactly once *cluster-wide*).  Modulo wall-clock fields, a distributed
row is bit-identical to its serial twin - the invariant every
distributed test leans on.

A cell that raises :class:`~repro.errors.ReproError` is reported to the
coordinator as a failed unit (``{uid, key, error}``) rather than
crashing the worker: one malformed corner of a 10^5-cell grid should
cost one cell, not a worker.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError, SpecificationError
from repro.fields import check_int
from repro.api.scenario import Scenario
from repro.obs import telemetry as obs
from repro.sweep.cache import SolveCache
from repro.sweep.orchestrate import run_cell
from repro.sweep.spec import SweepCell
from repro.sweep.distributed.protocol import (
    PROTOCOL_VERSION,
    FramedSocket,
    connect,
)
from repro.sweep.distributed.units import WorkUnit


@dataclass
class WorkerStats:
    """One worker's cumulative counters, shipped with every result
    batch (so a crash after batch *n* cannot lose the accounting for
    batches 1..n - in particular the ``solves`` count the cluster-wide
    exactly-once assertion sums over)."""

    cells: int = 0
    failed: int = 0
    solves: int = 0
    hits: int = 0
    lock_waits: int = 0
    cross_hits: int = 0
    busy_seconds: float = 0.0
    _seen: set[str] = field(default_factory=set)

    def to_dict(self) -> dict[str, Any]:
        return {
            "cells": self.cells,
            "failed": self.failed,
            "solves": self.solves,
            "hits": self.hits,
            "lock_waits": self.lock_waits,
            "cross_hits": self.cross_hits,
            "busy_seconds": round(self.busy_seconds, 6),
        }


def _execute(
    unit: WorkUnit, cache: SolveCache, stats: WorkerStats
) -> dict[str, Any]:
    """Run one cell through :func:`run_cell`; count cross-worker hits."""
    cell = SweepCell(
        unit.index, unit.key, unit.overrides,
        Scenario.from_dict(unit.scenario),
    )
    row, solved = run_cell(cell, cache)
    if not solved and row["fingerprint"] not in stats._seen:
        # A hit on the very first in-process touch can only have come
        # off the shared disk tier: another worker solved this design.
        # Counted here in the batch stats only - the coordinator sums
        # these and emits the one sweep.dist.cache.cross_hits counter
        # (an obs.inc here too would double-count after the goodbye
        # registry merge).
        stats.cross_hits += 1
    stats._seen.add(row["fingerprint"])
    return row


def _heartbeat_loop(
    framed: FramedSocket, interval: float, stop: threading.Event
) -> None:
    while not stop.wait(interval):
        try:
            framed.send({"type": "heartbeat"})
        except OSError:
            return


def run_worker(
    host: str,
    port: int,
    *,
    cache_dir: str | os.PathLike[str] | None = None,
    name: str | None = None,
    max_units: int | None = None,
    connect_timeout: float = 10.0,
    batch: int | None = None,
    on_cell: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """Serve one worker process until the coordinator says ``done``.

    cache_dir:
        The **shared** solve-cache directory.  Point every worker of a
        cluster at the same path (local disk or a shared mount) and the
        single-flight lock guarantees one solve per distinct design
        across all of them; ``None`` keeps a process-private in-memory
        cache (correct, but each worker re-solves).
    max_units:
        Stop after computing this many cells (tests use it to model a
        politely departing worker); ``None`` runs to grid completion.
    batch:
        Units to request per round trip (the coordinator may cap it).

    Returns the worker's final stats dict (the same payload shipped in
    its goodbye).
    """
    if batch is not None:
        check_int(batch, "batch", minimum=1)
    stats = WorkerStats()
    cache = SolveCache(cache_dir)
    worker_name = name or f"{os.uname().nodename}-{os.getpid()}"
    framed = connect(host, port, timeout=connect_timeout)
    stop_heartbeat = threading.Event()
    heartbeat: threading.Thread | None = None
    try:
        framed.send(
            {
                "type": "hello",
                "worker": worker_name,
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "cache_dir": (
                    None if cache_dir is None else str(cache_dir)
                ),
            }
        )
        welcome = framed.recv(timeout=connect_timeout)
        if welcome is None:
            raise SpecificationError(
                "coordinator did not answer the hello in time"
            )
        if welcome.get("type") == "error":
            raise SpecificationError(
                f"coordinator rejected worker: {welcome.get('reason')}"
            )
        if welcome.get("type") != "welcome":
            raise SpecificationError(
                f"expected welcome, got {welcome.get('type')!r}"
            )
        lease_seconds = float(welcome.get("lease_seconds") or 15.0)
        ship_telemetry = bool(welcome.get("telemetry"))
        # Heartbeats at a third of the lease budget: two may be lost
        # to scheduling hiccups before the lease is at risk.
        heartbeat = threading.Thread(
            target=_heartbeat_loop,
            args=(framed, lease_seconds / 3.0, stop_heartbeat),
            daemon=True,
        )
        heartbeat.start()

        def serve(tel: Any) -> None:
            want = batch or 8
            while True:
                if max_units is not None:
                    remaining = max_units - stats.cells
                    if remaining <= 0:
                        return
                    want = min(batch or 8, remaining)
                framed.send({"type": "request", "max_units": want})
                message = _await(framed, ("grant", "wait", "done"))
                kind = message.get("type")
                if kind == "done":
                    return
                if kind == "wait":
                    time.sleep(
                        min(float(message.get("delay") or 0.2), 2.0)
                    )
                    continue
                entries = []
                for payload in message.get("units") or ():
                    unit = WorkUnit.from_dict(payload)
                    begin = time.perf_counter()
                    try:
                        with obs.span("sweep.cell", key=unit.key):
                            row = _execute(unit, cache, stats)
                    except ReproError as error:
                        stats.failed += 1
                        entries.append(
                            {
                                "uid": unit.uid,
                                "key": unit.key,
                                "error": f"{type(error).__name__}: "
                                f"{error}",
                            }
                        )
                    else:
                        stats.cells += 1
                        entries.append(
                            {
                                "uid": unit.uid,
                                "key": unit.key,
                                "row": row,
                            }
                        )
                        if on_cell is not None:
                            on_cell(row)
                    stats.busy_seconds += time.perf_counter() - begin
                cache_stats = cache.stats()
                stats.solves = cache_stats["solves"]
                stats.hits = cache_stats["hits"]
                stats.lock_waits = cache_stats["lock_waits"]
                framed.send(
                    {
                        "type": "result",
                        "units": entries,
                        "stats": stats.to_dict(),
                    }
                )
                ack = _await(framed, ("ack",))
                del ack  # at-least-once: the ack itself is the commit

        if ship_telemetry:
            with obs.capture() as tel:
                with tel.span("sweep.dist.worker", worker=worker_name):
                    serve(tel)
            telemetry_payload = tel.to_dict()
        else:
            serve(None)
            telemetry_payload = None

        stop_heartbeat.set()
        goodbye: dict[str, Any] = {
            "type": "goodbye",
            "stats": stats.to_dict(),
        }
        if telemetry_payload is not None:
            goodbye["telemetry"] = telemetry_payload
        try:
            framed.send(goodbye)
        except OSError:  # pragma: no cover - coordinator already gone
            pass
        return stats.to_dict()
    finally:
        stop_heartbeat.set()
        framed.close()


def _await(
    framed: FramedSocket, expected: tuple[str, ...]
) -> dict[str, Any]:
    """The next non-heartbeat message; it must be one of ``expected``.

    ``error`` from the coordinator and EOF both end the worker: there
    is nothing useful a worker can do without its coordinator.
    """
    while True:
        message = framed.recv(timeout=30.0)
        if message is None:
            continue
        kind = message.get("type")
        if kind == "error":
            raise SpecificationError(
                f"coordinator error: {message.get('reason')}"
            )
        if kind in expected:
            return message
        raise SpecificationError(
            f"expected one of {expected}, coordinator sent {kind!r}"
        )
