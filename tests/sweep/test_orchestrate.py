"""Tests for the sweep orchestrator: cache, resume, shared pool."""

import json

import pytest

from repro.api import Scenario
from repro.errors import SpecificationError
from repro.sweep import RunStore, SweepAxis, SweepSpec, run_sweep


def base_scenario(**overrides) -> Scenario:
    payload = {
        "name": "base",
        "files": [
            {"name": "pos", "blocks": 2, "latency": 2, "fault_budget": 1},
            {"name": "map", "blocks": 3, "latency": 6},
        ],
        "workload": {"requests": 10, "horizon": 60, "seed": 4},
    }
    payload.update(overrides)
    return Scenario.from_dict(payload)


def fault_grid(**base_overrides) -> SweepSpec:
    base = base_scenario(**base_overrides)
    return SweepSpec(
        name="fault-grid",
        base=base,
        axes=(
            SweepAxis("faults.kind", ("bernoulli",)),
            SweepAxis("faults.probability", (0.0, 0.05, 0.1)),
            SweepAxis("faults.seed", (1, 2)),
        ),
    )


def strip_timing(row):
    out = dict(row)
    out.pop("elapsed")
    result = json.loads(json.dumps(out["result"]))
    traffic = result.get("traffic")
    if traffic:
        traffic.pop("requests_per_sec", None)
        traffic.pop("workers", None)
    out["result"] = result
    return out


class TestSerial:
    def test_counters_and_rows(self, tmp_path):
        spec = fault_grid()
        result = run_sweep(
            spec,
            store_path=tmp_path / "runs.jsonl",
            cache_dir=tmp_path / "cache",
        )
        assert result.cells == 6 and result.executed == 6
        assert result.resumed == 0
        # One distinct design over the whole fault grid: solved once,
        # every other cell a cache hit.
        assert result.distinct_designs == 1
        assert result.solves == 1
        assert result.cache_hits == 5
        assert [row["index"] for row in result.rows] == list(range(6))
        assert len({row["fingerprint"] for row in result.rows}) == 1

    def test_store_streams_rows(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        result = run_sweep(
            spec := fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        stored = RunStore(store_path).rows()
        assert [row["key"] for row in stored] == [
            cell.key for cell in spec.cells()
        ]
        assert stored == list(result.rows)

    def test_no_store_keeps_rows_in_memory(self):
        result = run_sweep(fault_grid())
        assert result.cells == 6 and result.store_path is None

    def test_memory_only_cache_still_memoizes(self):
        result = run_sweep(fault_grid())
        assert result.solves == 1 and result.cache_hits == 5

    def test_no_cache_solves_every_cell(self, tmp_path):
        result = run_sweep(
            fault_grid(),
            store_path=tmp_path / "runs.jsonl",
            use_cache=False,
        )
        assert result.solves == 6 and result.cache_hits == 0

    def test_rerun_without_resume_starts_fresh_but_keeps_a_backup(
        self, tmp_path
    ):
        store_path = tmp_path / "runs.jsonl"
        run_sweep(fault_grid(), store_path=store_path)
        second = run_sweep(fault_grid(), store_path=store_path)
        assert second.executed == 6 and second.resumed == 0
        assert len(RunStore(store_path).rows()) == 6
        # Forgetting --resume must not destroy finished rows: the old
        # store survives as one .bak generation.
        backup = tmp_path / "runs.jsonl.bak"
        assert len(RunStore(backup).rows()) == 6


class TestResume:
    def test_complete_store_skips_everything(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        first = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        second = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert second.executed == 0 and second.resumed == 6
        assert [strip_timing(r) for r in second.rows] == [
            strip_timing(r) for r in first.rows
        ]

    def test_killed_run_resumes_without_rerunning_finished_cells(
        self, tmp_path
    ):
        store_path = tmp_path / "runs.jsonl"
        first = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        # Simulate a mid-run kill: only the first two rows survive,
        # the third is torn mid-append.
        rows = RunStore(store_path).rows()
        with open(store_path, "w", encoding="utf-8") as handle:
            for row in rows[:2]:
                handle.write(json.dumps(row) + "\n")
            handle.write(json.dumps(rows[2])[:25])
        resumed = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert resumed.resumed == 2 and resumed.executed == 4
        # The design was already cached: no new solves.
        assert resumed.solves == 0
        # The store converged to one row per cell, and the final rows
        # match an uninterrupted run bit-for-bit (minus timing).
        final = RunStore(store_path).rows()
        assert sorted(r["key"] for r in final) == sorted(
            r["key"] for r in first.rows
        )
        assert [strip_timing(r) for r in resumed.rows] == [
            strip_timing(r) for r in first.rows
        ]

    def test_resume_reruns_cells_when_the_base_scenario_changed(
        self, tmp_path
    ):
        # Rows match on the cell key, but a key only names the axis
        # values - if the base scenario changed in any other field, the
        # stored rows are stale and must not be resurrected.
        store_path = tmp_path / "runs.jsonl"
        run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        changed = fault_grid(
            workload={"requests": 10, "horizon": 60, "seed": 99}
        )
        resumed = run_sweep(
            changed,
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert resumed.resumed == 0 and resumed.executed == 6
        for row in resumed.rows:
            seed = row["result"]["scenario"]["workload"]["seed"]
            assert seed == 99

    def test_resume_rewrites_indices_when_the_grid_grew(self, tmp_path):
        # Adding an axis value shifts later cells' positions; reused
        # rows must take their index from the current expansion so the
        # 'cell' column stays collision-free.
        def grid(probabilities):
            return SweepSpec(
                name="growing",
                base=base_scenario(),
                axes=(
                    SweepAxis("faults.kind", ("bernoulli",)),
                    SweepAxis("faults.probability", probabilities),
                ),
            )

        store_path = tmp_path / "runs.jsonl"
        run_sweep(
            grid((0.0, 0.1)),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        grown = run_sweep(
            grid((0.0, 0.05, 0.1)),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert grown.resumed == 2 and grown.executed == 1
        assert [row["index"] for row in grown.rows] == [0, 1, 2]
        assert [
            dict(row["overrides"])["faults.probability"]
            for row in grown.rows
        ] == [0.0, 0.05, 0.1]

    def test_resume_requires_a_store(self):
        with pytest.raises(SpecificationError, match="store"):
            run_sweep(fault_grid(), resume=True)


class TestParallel:
    def test_pool_matches_serial_bit_for_bit(self, tmp_path):
        serial = run_sweep(
            fault_grid(),
            store_path=tmp_path / "a.jsonl",
            cache_dir=tmp_path / "cache",
        )
        pooled = run_sweep(
            fault_grid(),
            max_workers=3,
            store_path=tmp_path / "b.jsonl",
            cache_dir=tmp_path / "cache",
        )
        assert [r["result"] for r in pooled.rows] == [
            r["result"] for r in serial.rows
        ]
        assert pooled.workers == 3
        # The warm cache meant zero solver runs in the second sweep.
        assert pooled.solves == 0 and pooled.cache_hits == 6

    def test_cold_parallel_solves_each_design_once(self, tmp_path):
        pooled = run_sweep(
            fault_grid(),
            max_workers=4,
            store_path=tmp_path / "runs.jsonl",
            cache_dir=tmp_path / "cache",
        )
        assert pooled.solves == 1 and pooled.distinct_designs == 1

    def test_traffic_shards_on_the_shared_pool(self, tmp_path):
        spec = SweepSpec(
            name="traffic-grid",
            base=base_scenario(
                workload=None,
                traffic={"clients": 24, "duration": 200, "seed": 7},
            ),
            axes=(
                SweepAxis("faults.kind", ("bernoulli",)),
                SweepAxis("faults.probability", (0.0, 0.08)),
            ),
        )
        serial = run_sweep(
            spec,
            store_path=tmp_path / "a.jsonl",
            cache_dir=tmp_path / "cache",
        )
        pooled = run_sweep(
            spec,
            max_workers=6,
            store_path=tmp_path / "b.jsonl",
            cache_dir=tmp_path / "cache",
        )
        # With 6 workers over 2 cells, each population split 3 ways.
        assert all(
            row["result"]["traffic"]["workers"] == 3
            for row in pooled.rows
        )
        # The cell's traffic wall spans submission to merge, so the
        # stored sustained rate stays plausible (not requests/~0s).
        for row in pooled.rows:
            traffic = row["result"]["traffic"]
            assert traffic["requests_per_sec"] <= (
                traffic["requests"] / row["elapsed"] * 1.01
            )
        assert [strip_timing(r)["result"] for r in pooled.rows] == [
            strip_timing(r)["result"] for r in serial.rows
        ]


    def test_no_cache_never_shards_traffic(self, tmp_path):
        # With the cache off, a shard task would re-solve the design;
        # the control arm must stay at one solve per cell.
        spec = SweepSpec(
            name="traffic-no-cache",
            base=base_scenario(
                workload=None,
                traffic={"clients": 24, "duration": 200, "seed": 7},
            ),
            axes=(SweepAxis("faults.probability", (0.0, 0.08)),),
        )
        result = run_sweep(
            spec,
            max_workers=6,
            store_path=tmp_path / "runs.jsonl",
            use_cache=False,
        )
        assert result.solves == 2
        assert all(
            row["result"]["traffic"]["workers"] == 1
            for row in result.rows
        )


class TestValidation:
    def test_bad_max_workers_rejected(self):
        for bad in (0, -2, True, 1.5):
            with pytest.raises(SpecificationError):
                run_sweep(fault_grid(), max_workers=bad)

    def test_non_spec_rejected(self):
        with pytest.raises(SpecificationError, match="SweepSpec"):
            run_sweep({"name": "x"})


class TestResumeRerunReasons:
    """``--resume`` must say *why* a stored row re-ran: the scenario
    payload drifted (stored row from a different base) vs. the key was
    simply never completed."""

    def test_missing_key_is_classified(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        rows = RunStore(store_path).rows()
        with open(store_path, "w", encoding="utf-8") as handle:
            for row in rows[:4]:
                handle.write(json.dumps(row) + "\n")
        resumed = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert resumed.resumed == 4 and resumed.executed == 2
        assert resumed.rerun_missing == 2
        assert resumed.rerun_drift == 0
        assert resumed.summary()["rerun"] == {
            "fingerprint_drift": 0,
            "missing_key": 2,
        }

    def test_fingerprint_drift_is_classified(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        # Same keys, different base scenario: every stored row is
        # stale by drift, none by absence.
        resumed = run_sweep(
            fault_grid(workload={"requests": 12, "horizon": 60,
                                 "seed": 4}),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert resumed.resumed == 0 and resumed.executed == 6
        assert resumed.rerun_drift == 6
        assert resumed.rerun_missing == 0
        assert resumed.summary()["rerun"] == {
            "fingerprint_drift": 6,
            "missing_key": 0,
        }

    def test_mixed_reasons(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        rows = RunStore(store_path).rows()
        # Drop one row entirely; corrupt another's stored scenario.
        dropped, drifted = rows[0]["key"], rows[1]["key"]
        with open(store_path, "w", encoding="utf-8") as handle:
            for row in rows:
                if row["key"] == dropped:
                    continue
                if row["key"] == drifted:
                    row = json.loads(json.dumps(row))
                    row["result"]["scenario"]["name"] = "stale"
                handle.write(json.dumps(row) + "\n")
        resumed = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert resumed.resumed == 4 and resumed.executed == 2
        assert resumed.rerun_drift == 1
        assert resumed.rerun_missing == 1

    def test_non_object_results_rerun_as_drift(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        rows = RunStore(store_path).rows()
        # A row whose result is not an object matches no scenario.
        for row, result in zip(rows, (5, "x", [1])):
            row["result"] = result
        with open(store_path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        resumed = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert resumed.resumed == 3 and resumed.executed == 3
        assert resumed.rerun_drift == 3
        assert resumed.rerun_missing == 0

    def test_matching_row_survives_a_later_stale_one(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
        )
        # Resuming under a renamed base re-runs every cell, so each key
        # now holds its matching row followed by a stale one.
        renamed = run_sweep(
            fault_grid(name="renamed"),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert renamed.rerun_drift == 6
        # Rows are deterministic: the earlier matching row is still a
        # valid result for the original base.
        resumed = run_sweep(
            fault_grid(),
            store_path=store_path,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        assert resumed.resumed == 6 and resumed.executed == 0
        assert resumed.rerun_drift == 0 and resumed.rerun_missing == 0
        names = {row["result"]["scenario"]["name"] for row in resumed.rows}
        assert names == {"base"}

    def test_no_resume_reports_zero(self, tmp_path):
        result = run_sweep(
            fault_grid(),
            store_path=tmp_path / "runs.jsonl",
            cache_dir=tmp_path / "cache",
        )
        assert result.rerun_drift == 0 and result.rerun_missing == 0
        assert result.summary()["rerun"] == {
            "fingerprint_drift": 0,
            "missing_key": 0,
        }

