"""Tests for tidy aggregation of sweep rows."""

import pytest

from repro.api import Scenario
from repro.errors import SpecificationError
from repro.sweep import (
    SweepAxis,
    SweepSpec,
    marginals,
    render_table,
    run_sweep,
    tidy_rows,
)


@pytest.fixture(scope="module")
def grid_result():
    base = Scenario.from_dict(
        {
            "name": "base",
            "files": [
                {"name": "pos", "blocks": 2, "latency": 2,
                 "fault_budget": 1},
                {"name": "map", "blocks": 3, "latency": 6},
            ],
            "workload": {"requests": 10, "horizon": 60, "seed": 4},
            "delay_errors": 1,
        }
    )
    spec = SweepSpec(
        name="grid",
        base=base,
        axes=(
            SweepAxis("faults.kind", ("bernoulli",)),
            SweepAxis("faults.probability", (0.0, 0.3)),
        ),
    )
    return run_sweep(spec)


class TestTidy:
    def test_axis_columns_and_metrics(self, grid_result):
        records = tidy_rows(grid_result.rows)
        assert len(records) == 2
        first = records[0]
        assert first["faults.probability"] == 0.0
        assert first["bandwidth"] == 3
        assert first["method"]
        assert first["sim_bounded"] is True
        assert first["worst_delay"] >= 0
        # necessary = 3/2 + 3/6 = 2.0; bandwidth 3 -> overhead 0.5
        assert first["bandwidth_overhead"] == pytest.approx(0.5)

    def test_records_match_result_helper(self, grid_result):
        assert tidy_rows(grid_result.rows) == grid_result.records()


class TestMarginals:
    def test_groups_and_means(self, grid_result):
        records = grid_result.records()
        out = marginals(records, "faults.probability", ["sim_miss_rate"])
        assert [entry["faults.probability"] for entry in out] == [0.0, 0.3]
        assert all(entry["cells"] == 1 for entry in out)
        assert out[0]["mean_sim_miss_rate"] == 0.0

    def test_numeric_sort_not_lexical(self):
        records = [{"x": value, "m": 1.0} for value in (10, 2, 1)]
        out = marginals(records, "x", ["m"])
        assert [entry["x"] for entry in out] == [1, 2, 10]

    def test_none_metrics_are_ignored(self):
        records = [
            {"x": 1, "m": 2.0},
            {"x": 1, "m": None},
            {"x": 1},
        ]
        out = marginals(records, "x", ["m"])
        assert out == [{"x": 1, "cells": 3, "mean_m": 2.0}]

    def test_unhashable_axis_values_group(self):
        records = [
            {"policy": ["greedy"], "m": 1.0},
            {"policy": ["greedy"], "m": 3.0},
            {"policy": "auto", "m": 5.0},
        ]
        out = marginals(records, "policy", ["m"])
        by_cells = {entry["cells"] for entry in out}
        assert by_cells == {1, 2}

    def test_requires_metrics(self):
        with pytest.raises(SpecificationError):
            marginals([], "x", [])


class TestRenderTable:
    def test_alignment_and_formatting(self):
        records = [
            {"axis": 0.5, "miss": 0.125, "ok": True, "gone": None},
            {"axis": 1.0, "miss": 0.25, "ok": False, "gone": None},
        ]
        table = render_table(records)
        lines = table.splitlines()
        assert lines[0].split("|") and "axis" in lines[0]
        assert "gone" not in lines[0]  # all-empty columns dropped
        assert "yes" in table and "no" in table
        assert len(lines) == 4  # header, rule, two rows

    def test_columns_are_the_union_over_all_records(self):
        # A metric only later cells populate still gets its column.
        records = [
            {"axis": 0, "miss": 0.0},
            {"axis": 1, "miss": 0.1, "worst_delay": 8},
        ]
        table = render_table(records)
        assert "worst_delay" in table.splitlines()[0]
        assert table.splitlines()[2].strip().endswith("-")

    def test_explicit_columns(self):
        records = [{"a": 1, "b": 2}]
        table = render_table(records, columns=["b"])
        assert "a" not in table and "b" in table

    def test_empty(self):
        assert render_table([]) == "(no rows)"


class TestMarginalAccumulator:
    """The streaming accumulator must reproduce ``marginals`` exactly -
    a view folded in row by row is not allowed to drift from the batch
    computation."""

    def test_matches_batch_marginals(self, grid_result):
        from repro.sweep import MarginalAccumulator

        metrics = ("sim_miss_rate", "sim_p95")
        fields = ("faults.kind", "faults.probability")
        accumulator = MarginalAccumulator(fields=fields, metrics=metrics)
        for row in grid_result.rows:
            accumulator.add_row(row)
        records = grid_result.records()
        expected = {
            field: marginals(records, field, metrics)
            for field in fields
        }
        assert accumulator.summary() == expected
        assert accumulator.rows == len(records)

    def test_streaming_order_is_irrelevant(self, grid_result):
        from repro.sweep import MarginalAccumulator

        forward = MarginalAccumulator(
            fields=("faults.probability",), metrics=("sim_p95",)
        )
        backward = MarginalAccumulator(
            fields=("faults.probability",), metrics=("sim_p95",)
        )
        for row in grid_result.rows:
            forward.add_row(row)
        for row in reversed(grid_result.rows):
            backward.add_row(row)
        assert forward.summary() == backward.summary()

    def test_requires_metrics(self):
        from repro.sweep import MarginalAccumulator

        with pytest.raises(SpecificationError):
            MarginalAccumulator(fields=("x",), metrics=())
