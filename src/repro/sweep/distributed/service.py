"""One-call local fan-out: coordinator plus N worker processes.

:func:`run_distributed_sweep` is the batteries-included entry point the
CLI, benchmarks, and tests share: bind a coordinator on a loopback
port, spawn up to ``workers`` child processes (no more than the cells
left to run) running ``repro sweep work`` against it (real processes
through the real CLI - the same code path a multi-host cluster runs),
serve to completion, and reap the children.
The pieces are also exported separately (:func:`spawn_worker`) so tests
can script hostile schedules: kill a worker mid-run, start a
replacement late, run the coordinator with no workers at all.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Sequence

import repro
from repro.errors import SimulationError
from repro.fields import check_int
from repro.sweep.spec import SweepSpec
from repro.sweep.distributed.coordinator import (
    DistributedSweepResult,
    SweepCoordinator,
)


def worker_command(
    address: tuple[str, int],
    *,
    cache_dir: str | Path | None = None,
    name: str | None = None,
    max_units: int | None = None,
    connect_timeout: float | None = None,
) -> list[str]:
    """The ``repro sweep work`` argv for one worker process."""
    host, port = address
    command = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "work",
        "--connect",
        f"{host}:{port}",
    ]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    if name is not None:
        command += ["--name", name]
    if max_units is not None:
        command += ["--max-units", str(max_units)]
    if connect_timeout is not None:
        command += ["--connect-timeout", str(connect_timeout)]
    return command


def spawn_worker(
    address: tuple[str, int],
    *,
    cache_dir: str | Path | None = None,
    name: str | None = None,
    max_units: int | None = None,
    connect_timeout: float | None = None,
) -> subprocess.Popen:
    """Start one worker subprocess against ``address``.

    The child runs the real CLI (``python -m repro sweep work ...``)
    with ``PYTHONPATH`` pointing at this interpreter's ``repro``, so it
    works from a source checkout without installation.  The returned
    handle is a plain :class:`subprocess.Popen` - tests ``kill()`` it
    to model a crash.
    """
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root
        if not existing
        else os.pathsep.join((package_root, existing))
    )
    return subprocess.Popen(
        worker_command(
            address,
            cache_dir=cache_dir,
            name=name,
            max_units=max_units,
            connect_timeout=connect_timeout,
        ),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def run_distributed_sweep(
    spec: SweepSpec,
    *,
    workers: int = 2,
    store_path: str | Path | None = None,
    resume: bool = False,
    cache_dir: str | Path | None = None,
    lease_seconds: float = 15.0,
    batch: int = 16,
    keep_rows: bool = True,
    bind: tuple[str, int] = ("127.0.0.1", 0),
    progress: Any = None,
) -> DistributedSweepResult:
    """Run one sweep on a local coordinator + worker-process cluster.

    ``cache_dir=None`` uses a run-scoped temporary directory, so the
    workers still share one solve-cache namespace (each distinct design
    solves exactly once) without littering the filesystem.  Pass a real
    directory to share solves *across* runs too.
    """
    check_int(workers, "workers", minimum=1)
    coordinator = SweepCoordinator(
        spec,
        bind=bind,
        store_path=store_path,
        resume=resume,
        lease_seconds=lease_seconds,
        batch=batch,
        keep_rows=keep_rows,
    )
    if progress is not None:
        coordinator.progress = progress
    shared_cache = tempfile.TemporaryDirectory(
        prefix="repro-sweep-cache-"
    ) if cache_dir is None else None
    cache = (
        Path(shared_cache.name) if shared_cache is not None else cache_dir
    )
    children: list[subprocess.Popen] = []
    try:
        # The listener is already bound, so workers may dial before
        # serve() starts.  Spawn no more than the cells left to run: an
        # all-resumed grid completes without any worker, and one
        # started for it would dial a closed listener until its
        # connect timeout.
        for index in range(min(workers, coordinator.pending_cells())):
            children.append(
                spawn_worker(
                    coordinator.address,
                    cache_dir=cache,
                    name=f"local-{index}",
                )
            )
        result = coordinator.serve()
    finally:
        coordinator.close()
        for child in children:
            try:
                child.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait(timeout=10.0)
        if shared_cache is not None:
            shared_cache.cleanup()
    crashed = [
        child.returncode
        for child in children
        if child.returncode not in (0, None)
    ]
    if crashed and coordinator.completed_count < result.cells:
        raise SimulationError(
            f"worker processes exited non-zero ({crashed}) and the "
            f"grid is incomplete"
        )
    if cache_dir is None:
        return result
    return dataclasses.replace(result, cache_dir=str(cache_dir))


def wait_for_workers(
    children: Sequence[subprocess.Popen], timeout: float = 30.0
) -> list[int]:
    """Reap worker subprocesses; returns their exit codes."""
    codes = []
    for child in children:
        try:
            codes.append(child.wait(timeout=timeout))
        except subprocess.TimeoutExpired:
            child.kill()
            codes.append(child.wait(timeout=timeout))
    return codes
