"""Integration tests for the distributed sweep service.

The core invariant under test: for any worker count and any kill
schedule, the distributed row set is identical to serial ``run_sweep``
modulo wall-clock fields.  Workers here are *real* subprocesses running
the real ``repro sweep work`` CLI - a SIGKILL is an actual SIGKILL.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import Scenario
from repro.errors import SpecificationError
from repro.obs import telemetry as obs
from repro.sweep import RunStore, SweepAxis, SweepSpec, run_sweep
from repro.sweep.distributed import service
from repro.sweep.distributed import (
    PROTOCOL_VERSION,
    FramedSocket,
    SweepCoordinator,
    connect,
    run_distributed_sweep,
    run_worker,
    spawn_worker,
    strip_volatile,
    wait_for_workers,
)


def multichannel_base(**overrides) -> Scenario:
    payload = {
        "name": "mc-dist",
        "files": [
            {"name": f"f{i}", "blocks": 2 + (i % 2), "latency": 12 + 4 * i}
            for i in range(4)
        ],
        "channels": {"count": 2},
        "workload": {"requests": 20, "horizon": 150, "seed": 4},
        "traffic": {
            "clients": 6, "duration": 120, "requests_per_client": 1,
            "seed": 5,
        },
    }
    payload.update(overrides)
    return Scenario.from_dict(payload)


def multichannel_grid(seeds=(1, 2)) -> SweepSpec:
    # channels.tuning_cost is a runtime knob (designs shared per
    # count), faults.* are runtime-only: 2 channel counts => exactly
    # 2 distinct designs however many cells run.
    return SweepSpec(
        name="mc-grid",
        base=multichannel_base(),
        axes=(
            SweepAxis("channels.count", (1, 2)),
            SweepAxis("faults.kind", ("bernoulli",)),
            SweepAxis("faults.probability", (0.0, 0.05, 0.1)),
            SweepAxis("faults.seed", tuple(seeds)),
        ),
    )


def rows_by_key(rows):
    return {row["key"]: strip_volatile(row) for row in rows}


def assert_identical(serial_rows, dist_rows):
    serial = rows_by_key(serial_rows)
    dist = rows_by_key(dist_rows)
    assert set(serial) == set(dist)
    for key, row in serial.items():
        assert dist[key] == row, f"row mismatch at {key}"


@pytest.fixture(scope="module")
def serial_baseline(tmp_path_factory):
    """One serial run of the shared grid, reused across this module."""
    tmp = tmp_path_factory.mktemp("serial")
    spec = multichannel_grid()
    result = run_sweep(
        spec, store_path=tmp / "runs.jsonl", cache_dir=tmp / "cache"
    )
    return spec, result


class TestIdentityAcrossWorkerCounts:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_row_set_identical_to_serial(
        self, tmp_path, serial_baseline, workers
    ):
        spec, serial = serial_baseline
        dist = run_distributed_sweep(
            spec,
            workers=workers,
            store_path=tmp_path / "dist.jsonl",
            lease_seconds=10.0,
            batch=3,
        )
        assert dist.executed == spec.total_cells
        assert_identical(serial.rows, dist.rows)
        # The shared cache + single-flight: one solve per distinct
        # design across every worker process.
        assert dist.distinct_designs == 2
        assert dist.solves == 2
        # The store holds every key (what a resume would read).
        stored = {
            row["key"] for row in RunStore(tmp_path / "dist.jsonl").rows()
        }
        assert stored == {row["key"] for row in serial.rows}


class TestKillSchedules:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sigkill_one_worker_loses_nothing(
        self, tmp_path, workers
    ):
        # A longer grid so the kill reliably lands mid-run.
        spec = multichannel_grid(seeds=(1, 2, 3, 4))
        serial = run_sweep(
            spec,
            store_path=tmp_path / "serial.jsonl",
            cache_dir=tmp_path / "serial-cache",
        )
        coordinator = SweepCoordinator(
            spec,
            store_path=tmp_path / "dist.jsonl",
            lease_seconds=1.0,
            batch=2,
        )
        cache = tmp_path / "cache"
        children = [
            spawn_worker(
                coordinator.address, cache_dir=cache, name=f"w{i}"
            )
            for i in range(workers)
        ]
        state = {}

        def killer():
            # SIGKILL the first worker once the grid is mid-flight,
            # then add a replacement (required when workers == 1).
            while coordinator.completed_count < 3:
                time.sleep(0.005)
            children[0].kill()
            state["killed_at"] = coordinator.completed_count
            children.append(
                spawn_worker(
                    coordinator.address, cache_dir=cache, name="spare"
                )
            )

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        result = coordinator.serve()
        thread.join(timeout=10.0)
        wait_for_workers(children)

        assert state["killed_at"] < spec.total_cells
        assert result.executed == spec.total_cells
        assert not result.failures
        assert_identical(serial.rows, result.rows)
        # Exactly-once solving survives the crash: the worker stats
        # ride on every result batch, not just the goodbye.
        assert result.solves == result.distinct_designs == 2

    def test_hung_worker_leases_expire_and_requeue(self, tmp_path):
        # Deterministic variant: a fake worker leases cells and then
        # goes *silent without closing* - no EOF, so only the
        # heartbeat deadline can reclaim its cells.
        spec = multichannel_grid(seeds=(1, 2, 3))
        coordinator = SweepCoordinator(
            spec,
            store_path=tmp_path / "dist.jsonl",
            lease_seconds=0.5,
            batch=4,
        )
        host, port = coordinator.address
        outcome = {}

        def serve():
            outcome["result"] = coordinator.serve()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        victim = connect(host, port, timeout=5.0)
        victim.send(
            {
                "type": "hello",
                "worker": "victim",
                "pid": 0,
                "protocol": PROTOCOL_VERSION,
                "cache_dir": None,
            }
        )
        assert victim.recv(timeout=5.0)["type"] == "welcome"
        victim.send({"type": "request", "max_units": 4})
        grant = victim.recv(timeout=5.0)
        assert grant["type"] == "grant" and len(grant["units"]) == 4
        # Silence.  The rescuer must end up computing everything.
        children = [
            spawn_worker(
                coordinator.address,
                cache_dir=tmp_path / "cache",
                name="rescuer",
            )
        ]
        server.join(timeout=120.0)
        victim.close()
        wait_for_workers(children)
        result = outcome["result"]
        assert result.executed == spec.total_cells
        assert result.requeued >= 4
        assert result.lease_expiries >= 4


class TestCoordinatorRestart:
    def test_resume_after_restart_reuses_stored_rows(self, tmp_path):
        spec = multichannel_grid()
        store = tmp_path / "dist.jsonl"
        cache = tmp_path / "cache"
        first = run_distributed_sweep(
            spec, workers=2, store_path=store, cache_dir=cache
        )
        assert first.executed == spec.total_cells

        # "Coordinator restart": a fresh coordinator over the same
        # store resumes every row without needing a single worker.
        second = SweepCoordinator(
            spec, store_path=store, resume=True
        ).serve()
        assert second.resumed == spec.total_cells
        assert second.executed == 0
        assert second.rerun_drift == 0
        assert second.rerun_missing == 0
        assert_identical(first.rows, second.rows)

    def test_resume_classifies_reruns(self, tmp_path):
        spec = multichannel_grid()
        store = tmp_path / "dist.jsonl"
        run_distributed_sweep(spec, workers=2, store_path=store)

        # Drop one row (missing key) and corrupt another's stored
        # scenario (fingerprint drift); both must re-run, for the
        # right reported reasons.
        rows = RunStore(store).rows()
        dropped = rows[0]["key"]
        drifted = rows[1]["key"]
        rewritten = []
        for row in rows:
            if row["key"] == dropped:
                continue
            if row["key"] == drifted:
                row = json.loads(json.dumps(row))
                row["result"]["scenario"]["name"] = "stale-base"
            rewritten.append(row)
        store.unlink()
        fresh = RunStore(store)
        fresh.append_many(rewritten)

        coordinator = SweepCoordinator(
            spec,
            store_path=store,
            resume=True,
            lease_seconds=5.0,
        )
        children = [
            spawn_worker(
                coordinator.address,
                cache_dir=tmp_path / "cache2",
                name="w0",
            )
        ]
        result = coordinator.serve()
        wait_for_workers(children)
        assert result.resumed == spec.total_cells - 2
        assert result.executed == 2
        assert result.rerun_drift == 1
        assert result.rerun_missing == 1
        assert result.summary()["rerun"] == {
            "fingerprint_drift": 1,
            "missing_key": 1,
        }


class TestWorkerEdges:
    def test_max_units_worker_departs_politely(self, tmp_path):
        spec = multichannel_grid()
        coordinator = SweepCoordinator(
            spec, store_path=tmp_path / "dist.jsonl", batch=2
        )
        host, port = coordinator.address
        results = {}

        def partial():
            results["partial"] = run_worker(
                host, port, cache_dir=tmp_path / "cache",
                name="partial", max_units=3,
            )

        def finisher():
            results["finisher"] = run_worker(
                host, port, cache_dir=tmp_path / "cache",
                name="finisher",
            )

        threads = [
            threading.Thread(target=partial, daemon=True),
            threading.Thread(target=finisher, daemon=True),
        ]
        for thread in threads:
            thread.start()
        result = coordinator.serve()
        for thread in threads:
            thread.join(timeout=10.0)
        assert results["partial"]["cells"] == 3
        assert result.executed == spec.total_cells
        assert (
            results["partial"]["cells"] + results["finisher"]["cells"]
            == spec.total_cells
        )

    def test_failed_cell_is_reported_not_fatal(self, tmp_path):
        # An axis value the validator rejects at the worker: that one
        # cell fails, every other cell still completes.
        spec = SweepSpec(
            name="bad-grid",
            base=multichannel_base(),
            axes=(SweepAxis("faults.kind", ("bernoulli", "nope")),),
        )
        coordinator = SweepCoordinator(
            spec, store_path=tmp_path / "dist.jsonl"
        )
        children = [
            spawn_worker(
                coordinator.address,
                cache_dir=tmp_path / "cache",
                name="w0",
            )
        ]
        result = coordinator.serve()
        wait_for_workers(children)
        assert result.executed == 1
        assert len(result.failures) == 1
        assert 'faults.kind="nope"' in result.failures[0]["key"]
        assert "nope" in result.failures[0]["error"]

    def test_protocol_mismatch_rejected(self, tmp_path):
        spec = multichannel_grid()
        coordinator = SweepCoordinator(spec)
        host, port = coordinator.address
        server = threading.Thread(
            target=coordinator.serve, daemon=True
        )
        server.start()
        framed = connect(host, port, timeout=5.0)
        try:
            framed.send(
                {
                    "type": "hello",
                    "worker": "old",
                    "pid": 0,
                    "protocol": PROTOCOL_VERSION + 1,
                    "cache_dir": None,
                }
            )
            answer = framed.recv(timeout=5.0)
            assert answer["type"] == "error"
            assert "protocol mismatch" in answer["reason"]
        finally:
            framed.close()
            coordinator.close()
            server.join(timeout=10.0)


class TestSummaryParity:
    """The summary keys both executors share mean the same thing;
    ``workers`` and ``elapsed`` describe the transport and may differ."""

    SHARED = (
        "cells", "executed", "resumed", "rerun", "distinct_designs",
        "solves", "cache_hits",
    )

    @pytest.mark.parametrize("state", ["fresh", "all-resumed", "mixed"])
    def test_shared_keys_agree(self, tmp_path, serial_baseline, state):
        spec, serial = serial_baseline
        rows = [json.loads(json.dumps(row)) for row in serial.rows]
        if state == "fresh":
            rows = []
        elif state == "mixed":
            # One key missing, one stored row stale.
            rows[1]["result"]["scenario"]["name"] = "stale-base"
            rows = rows[1:]
        resume = state != "fresh"
        for name in ("pool", "dist"):
            RunStore(tmp_path / f"{name}.jsonl").append_many(rows)
        pooled = run_sweep(
            spec,
            max_workers=2,
            store_path=tmp_path / "pool.jsonl",
            cache_dir=tmp_path / "pool-cache",
            resume=resume,
        ).summary()
        coordinator = SweepCoordinator(
            spec, store_path=tmp_path / "dist.jsonl", resume=resume
        )
        # An all-resumed grid completes without any worker.
        children = [
            spawn_worker(
                coordinator.address,
                cache_dir=tmp_path / "dist-cache",
                name=f"w{i}",
            )
            for i in range(0 if state == "all-resumed" else 2)
        ]
        dist = coordinator.serve().summary()
        wait_for_workers(children)
        pooled, dist = (
            {key: summary[key] for key in self.SHARED}
            for summary in (pooled, dist)
        )
        assert pooled == dist
        if state == "all-resumed":
            assert pooled["distinct_designs"] == 0
        else:
            assert pooled["solves"] == pooled["distinct_designs"]


class TestAllResumedLocalRun:
    def test_returns_promptly_without_stray_workers(
        self, tmp_path, monkeypatch
    ):
        # Every cell resumes, so serve() returns at once.  No worker may
        # be left dialing the closed listener until its connect timeout
        # (10 s), and no background thread may die on the way.
        spec = SweepSpec(
            name="resumed",
            base=multichannel_base(),
            axes=(SweepAxis("faults.seed", (1, 2)),),
        )
        store = tmp_path / "runs.jsonl"
        run_sweep(spec, store_path=store, cache_dir=tmp_path / "cache")
        spawned = []

        def spawn(*args, **kwargs):
            spawned.append(spawn_worker(*args, **kwargs))
            return spawned[-1]

        crashes = []
        monkeypatch.setattr(service, "spawn_worker", spawn)
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        begin = time.monotonic()
        result = run_distributed_sweep(
            spec, workers=2, store_path=store, resume=True
        )
        elapsed = time.monotonic() - begin
        assert result.resumed == spec.total_cells
        assert elapsed < 5.0
        assert crashes == []
        assert all(child.poll() is not None for child in spawned)


class TestWorkerCountValidation:
    def test_bad_worker_counts_rejected(self):
        for bad in (0, True, "2"):
            with pytest.raises(SpecificationError, match="workers"):
                run_distributed_sweep(multichannel_grid(), workers=bad)

    def test_fractional_worker_count_fails_fast(self):
        # A fractional count used to kill the launcher thread while
        # serve() waited forever for workers that never connect.
        outcome = {}

        def attempt():
            try:
                run_distributed_sweep(multichannel_grid(), workers=1.5)
            except SpecificationError as error:
                outcome["error"] = error

        thread = threading.Thread(target=attempt, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "run_distributed_sweep hung"
        assert "workers" in str(outcome["error"])

    def test_bad_coordinator_knobs_rejected(self):
        for knobs in (
            {"batch": 1.5}, {"batch": True}, {"batch": 0},
            {"lease_seconds": "5"}, {"lease_seconds": 0},
        ):
            with pytest.raises(SpecificationError):
                SweepCoordinator(multichannel_grid(), **knobs)

    def test_bad_worker_batch_rejected(self):
        for bad in (1.5, True, 0):
            with pytest.raises(SpecificationError, match="batch"):
                run_worker("127.0.0.1", 1, batch=bad, connect_timeout=0.3)


class TestTelemetry:
    def test_counters_and_worker_merge(self, tmp_path):
        spec = multichannel_grid()
        with obs.capture() as tel:
            result = run_distributed_sweep(
                spec,
                workers=2,
                store_path=tmp_path / "dist.jsonl",
                lease_seconds=10.0,
            )
        payload = tel.to_dict()
        metrics = payload["metrics"]
        names = {metric["name"] for metric in metrics}
        assert "sweep.dist.cells.completed" in names
        assert "sweep.dist.leases.granted" in names
        assert "sweep.dist.queue_depth" in names
        assert "sweep.dist.workers" in names
        assert "sweep.dist.worker_utilization" in names
        completed = sum(
            metric["value"]
            for metric in metrics
            if metric["name"] == "sweep.dist.cells.completed"
        )
        assert completed == spec.total_cells
        # Worker registries merged in via the goodbye payload: spans
        # recorded inside the worker *processes* appear in the
        # coordinator's trace ring.
        span_names = {span["name"] for span in payload["spans"]}
        assert "sweep.dist.worker" in span_names
        assert "sweep.cell" in span_names
        assert result.worker_stats
        for stats in result.worker_stats.values():
            assert stats["utilization"] is not None
