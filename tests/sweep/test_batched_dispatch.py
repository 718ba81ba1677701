"""Batched pool dispatch against the serial loop.

A pooled sweep ships consecutive cells as one task and commits each
batch with one group commit.  Rows and store lines must equal the serial
run's except the wall-clock ``elapsed`` and the scheduling-dependent
``cache_hit``; the parent fsyncs once per batch; a truncated store
resumes to the same rows; a traced run keeps one ``sweep.cell`` span per
cell; a slow batch at the head leaves no worker idle; and a failing cell
stops the pool the way it stops the serial loop.
"""

import json
import os
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.sweep.orchestrate as orchestrate
from repro.obs import telemetry as obs
from repro.sweep import RunStore, SweepSpec, run_sweep

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Candidate axes: fault knobs share one design, ``files.1.fault_budget``
#: makes several.
AXES = {
    "faults.probability": [0.0, 0.02, 0.05, 0.1, 0.2],
    "faults.seed": [1, 2, 3, 4, 5, 6, 7, 8],
    "workload.seed": [1, 2, 3, 4, 5],
    "files.1.fault_budget": [0, 1, 2],
}

BASE = {
    "name": "batched",
    "files": [
        {"name": "pos", "blocks": 2, "latency": 2, "fault_budget": 1},
        {"name": "map", "blocks": 3, "latency": 6},
    ],
    "faults": {"kind": "bernoulli", "probability": 0.05, "seed": 1},
    "workload": {"requests": 8, "horizon": 60, "seed": 4},
}


@st.composite
def grids(draw):
    """Sweep payloads of 1-3 axes and 1-40 cells."""
    fields = draw(
        st.lists(st.sampled_from(sorted(AXES)), min_size=1, max_size=3,
                 unique=True)
    )
    axes = []
    cells = 1
    for field in fields:
        budget = 40 // cells
        values = draw(
            st.lists(
                st.sampled_from(AXES[field]),
                min_size=1,
                max_size=min(budget, len(AXES[field])),
                unique=True,
            )
        )
        cells *= len(values)
        axes.append({"field": field, "values": values})
    return {"name": "batched-grid", "base": BASE, "axes": axes}


def comparable(row):
    """A row without its wall clock and its scheduling-dependent flag."""
    return {
        key: value for key, value in row.items()
        if key not in ("elapsed", "cache_hit")
    }


def store_lines(path):
    return [
        comparable(json.loads(line))
        for line in Path(path).read_text(encoding="utf-8").splitlines()
    ]


def expected_batches(cells, workers):
    size = orchestrate._batch_size(cells, workers)
    return -(-cells // size)


class TestBatchSize:
    def test_sweep_grid_gets_eight_batches(self):
        assert orchestrate._batch_size(120, 2) == 16
        assert expected_batches(120, 2) == 8

    def test_batches_cap_at_the_coordinator_batch(self):
        assert orchestrate.BATCH_MAX == 16
        assert orchestrate._batch_size(10_000, 2) == 16

    def test_fewer_pending_cells_than_workers_ship_one_each(self):
        for workers in (2, 3, 8):
            for pending in range(1, workers):
                assert orchestrate._batch_size(pending, workers) == 1

    def test_small_grids_make_at_most_one_batch_per_worker(self):
        # Every batch of such a grid is on the pool at once.
        for workers in (2, 3, 8):
            for pending in range(1, orchestrate.BATCH_MAX * workers + 1):
                assert expected_batches(pending, workers) <= workers
        # The example sweeps: 12 and 4 cells.
        assert orchestrate._batch_size(12, 2) == 6
        assert orchestrate._batch_size(12, 3) == 4
        assert orchestrate._batch_size(4, 3) == 2


class TestDifferential:
    @given(
        payload=grids(),
        workers=st.sampled_from([2, 3]),
        batch_max=st.sampled_from([1, 3, 16]),
        traced=st.booleans(),
        cut=st.floats(0.0, 1.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_pool_equals_serial(self, payload, workers, batch_max, traced,
                                cut):
        spec = SweepSpec.from_dict(payload)
        cells = spec.total_cells
        with tempfile.TemporaryDirectory() as scratch, \
                pytest.MonkeyPatch.context() as patch:
            root = Path(scratch)
            serial = run_sweep(
                spec, store_path=root / "serial.jsonl",
                cache_dir=root / "serial-cache",
            )
            patch.setattr(orchestrate, "BATCH_MAX", batch_max)
            fsyncs = []
            real_fsync = os.fsync
            patch.setattr(
                os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
            )
            tel = obs.Telemetry() if traced else None
            with obs.capture(tel) if traced else nullcontext():
                pooled = run_sweep(
                    spec, max_workers=workers,
                    store_path=root / "pooled.jsonl",
                    cache_dir=root / "cache",
                )
            batches = expected_batches(cells, workers)
            # One group commit per batch, nothing else fsynced here.
            assert len(fsyncs) == batches
            assert [comparable(r) for r in pooled.rows] == [
                comparable(r) for r in serial.rows
            ]
            assert store_lines(root / "pooled.jsonl") == store_lines(
                root / "serial.jsonl"
            )
            for counter in ("cells", "executed", "distinct_designs",
                            "solves", "cache_hits"):
                assert getattr(pooled, counter) == getattr(serial, counter)
            if traced:
                names = [span.name for span in tel.spans]
                assert names.count("sweep.cell") == cells
                assert names.count("sweep.cell.store") == batches
                # The pool wait is one span per batch, under its first
                # cell.
                assert names.count("sweep.cell.queue") == batches
                assert names.count("sweep.cell.simulate") == cells

            # A kill mid-run leaves whole batches plus a torn line.
            lines = (root / "pooled.jsonl").read_text().splitlines()
            keep = int(cut * len(lines))
            with open(root / "pooled.jsonl", "w") as handle:
                handle.writelines(line + "\n" for line in lines[:keep])
                if keep < len(lines):
                    handle.write(lines[keep][: len(lines[keep]) // 2])
            torn = keep < len(lines)
            with pytest.warns(RuntimeWarning) if torn else nullcontext():
                resumed = run_sweep(
                    spec, max_workers=workers,
                    store_path=root / "pooled.jsonl",
                    cache_dir=root / "cache", resume=True,
                )
            assert resumed.resumed == keep
            assert [comparable(r) for r in resumed.rows] == [
                comparable(r) for r in serial.rows
            ]
            assert sorted(
                row["key"] for row in RunStore(root / "pooled.jsonl").rows()
            ) == sorted(row["key"] for row in serial.rows)


def failing_grid():
    """sweep_fault_grid.json at 400 requests per cell, over 60 fault seeds
    x two scheduler policies: every ``["exact"]`` cell, cell 1 first,
    raises BandwidthError."""
    payload = json.loads((EXAMPLES / "sweep_fault_grid.json").read_text())
    payload["base"]["workload"]["requests"] = 400
    payload["axes"] = [
        {"field": "faults.seed", "values": list(range(1, 61))},
        {"field": "scheduler_policy", "values": ["auto", ["exact"]]},
    ]
    return SweepSpec.from_dict(payload)


def lone_failure_grid():
    """The same base over 120 fault seeds; only cell 1 will fail."""
    payload = json.loads((EXAMPLES / "sweep_fault_grid.json").read_text())
    payload["base"]["workload"]["requests"] = 400
    payload["axes"] = [
        {"field": "faults.seed", "values": list(range(1, 121))},
    ]
    return SweepSpec.from_dict(payload)


class TestFailingCell:
    """A failing pooled cell stops the grid: the serial error, the serial
    rows, and at most ``workers x batch`` cells started after it."""

    def run(self, spec, tmp_path, name, workers, patch, fail_at=None):
        markers = tmp_path / f"{name}.markers"
        original = orchestrate.run_cell

        def marked(cell, cache, **kwargs):
            # Forked pool workers inherit this patch; O_APPEND keeps
            # their one-line writes whole.
            with open(markers, "a", encoding="utf-8") as handle:
                handle.write(f"{cell.index}\n")
            if cell.index == fail_at:
                raise RuntimeError(f"cell {cell.index} fails")
            return original(cell, cache, **kwargs)

        patch.setattr(orchestrate, "run_cell", marked)
        store = tmp_path / f"{name}.jsonl"
        with pytest.raises(Exception) as raised:
            run_sweep(spec, max_workers=workers, store_path=store)
        started = [int(line) for line in markers.read_text().split()]
        return raised.value, store_lines(store), started

    @pytest.mark.parametrize("grid, fail_at", [
        (failing_grid, None),
        (lone_failure_grid, 1),
    ])
    def test_pool_stops_like_the_serial_loop(
        self, tmp_path, monkeypatch, grid, fail_at
    ):
        spec = grid()
        serial_error, serial_rows, serial_started = self.run(
            spec, tmp_path, "serial", None, monkeypatch, fail_at
        )
        assert serial_started == [0, 1] and len(serial_rows) == 1
        workers = 2
        batch = orchestrate._batch_size(spec.total_cells, workers)
        error, rows, started = self.run(
            spec, tmp_path, "pooled", workers, monkeypatch, fail_at
        )
        assert type(error) is type(serial_error)
        assert str(error) == str(serial_error)
        assert rows == serial_rows
        after = [index for index in started if index > 1]
        assert len(after) <= workers * batch, (len(after), workers, batch)


def test_a_slow_head_batch_leaves_no_worker_idle(tmp_path, monkeypatch):
    """The pool is topped up whenever any batch finishes, not only when
    the oldest one is committed: while cell 0 runs, the other worker
    works through every later cell."""
    spec = SweepSpec.from_dict({
        "name": "slow-head",
        "base": BASE,
        "axes": [{"field": "faults.seed", "values": list(range(1, 11))}],
    })
    markers = tmp_path / "markers"
    original = orchestrate.run_cell
    later = {f"start {index}" for index in range(1, 10)}

    def marked(cell, cache, **kwargs):
        with open(markers, "a", encoding="utf-8") as handle:
            handle.write(f"start {cell.index}\n")
        if cell.index == 0:
            # Hold cell 0 until every later cell has started (or give
            # up after a while, so the failing case ends).
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not later <= set(
                markers.read_text().splitlines()
            ):
                time.sleep(0.01)
            with open(markers, "a", encoding="utf-8") as handle:
                handle.write("end 0\n")
        return original(cell, cache, **kwargs)

    monkeypatch.setattr(orchestrate, "BATCH_MAX", 1)
    monkeypatch.setattr(orchestrate, "run_cell", marked)
    result = run_sweep(spec, max_workers=2, store_path=tmp_path / "r.jsonl")
    lines = markers.read_text().splitlines()
    assert later <= set(lines[:lines.index("end 0")])
    assert [row["index"] for row in result.rows] == list(range(10))
    assert [
        row["index"] for row in RunStore(tmp_path / "r.jsonl").rows()
    ] == list(range(10))


def test_a_failure_behind_a_slow_head_stops_top_ups(tmp_path, monkeypatch):
    """Once a finished batch reports an error nothing more is submitted,
    even while an older batch still runs: the rows before the failing
    cell are stored and its error raised, and the other worker does not
    go on through the rest of the grid."""
    spec = SweepSpec.from_dict({
        "name": "failure-behind-head",
        "base": BASE,
        "axes": [{"field": "faults.seed", "values": list(range(1, 21))}],
    })
    markers = tmp_path / "markers"
    original = orchestrate.run_cell

    def marked(cell, cache, **kwargs):
        with open(markers, "a", encoding="utf-8") as handle:
            handle.write(f"{cell.index}\n")
        if cell.index == 0:
            # Hold cell 0 until cell 3 has started, then long enough for
            # the other worker to run every later cell if it were fed.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and "3" not in (
                markers.read_text().split()
            ):
                time.sleep(0.01)
            time.sleep(1.0)
        if cell.index == 3:
            raise RuntimeError("cell 3 fails")
        return original(cell, cache, **kwargs)

    monkeypatch.setattr(orchestrate, "BATCH_MAX", 1)
    monkeypatch.setattr(orchestrate, "run_cell", marked)
    workers = 2
    with pytest.raises(RuntimeError, match="cell 3 fails"):
        run_sweep(spec, max_workers=workers, store_path=tmp_path / "r.jsonl")
    started = [int(line) for line in markers.read_text().split()]
    assert len([index for index in started if index > 3]) <= workers
    assert [
        row["index"] for row in RunStore(tmp_path / "r.jsonl").rows()
    ] == [0, 1, 2]


def test_every_cell_runs_exactly_once(tmp_path, monkeypatch):
    """Batches cover the pending cells in order, each cell once."""
    spec = SweepSpec.from_dict({
        "name": "cover",
        "base": BASE,
        "axes": [{"field": "faults.seed", "values": list(range(1, 38))}],
    })
    markers = tmp_path / "markers"
    original = orchestrate.run_cell

    def marked(cell, cache, **kwargs):
        with open(markers, "a", encoding="utf-8") as handle:
            handle.write(f"{cell.index}\n")
        return original(cell, cache, **kwargs)

    monkeypatch.setattr(orchestrate, "run_cell", marked)
    result = run_sweep(spec, max_workers=3, store_path=tmp_path / "r.jsonl")
    started = sorted(int(line) for line in markers.read_text().split())
    assert started == list(range(37))
    assert [row["index"] for row in result.rows] == list(range(37))
    assert [
        row["key"] for row in RunStore(tmp_path / "r.jsonl").rows()
    ] == [cell.key for cell in spec.cells()]
