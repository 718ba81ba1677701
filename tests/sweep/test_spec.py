"""Tests for sweep specifications and grid expansion."""

import pytest

from repro.api import Scenario
from repro.bdisk.file import FileSpec
from repro.errors import SpecificationError
from repro.sweep import SweepAxis, SweepSpec, apply_overrides, set_dotted


def base_scenario(**overrides) -> Scenario:
    params = dict(
        name="base",
        files=(
            FileSpec("pos", 2, 2, fault_budget=1),
            FileSpec("map", 3, 6),
        ),
    )
    params.update(overrides)
    return Scenario(**params)


class TestAxis:
    def test_values_round_trip(self):
        axis = SweepAxis("faults.probability", (0.0, 0.1))
        assert SweepAxis.from_dict(axis.to_dict()) == axis

    def test_range_expansion_integers(self):
        axis = SweepAxis.from_dict(
            {"field": "traffic.clients",
             "range": {"start": 100, "stop": 500, "step": 200}}
        )
        assert axis.values == (100, 300, 500)
        assert all(isinstance(v, int) for v in axis.values)

    def test_range_expansion_floats_inclusive_endpoint(self):
        axis = SweepAxis.from_dict(
            {"field": "workload.zipf_skew",
             "range": {"start": 0.0, "stop": 1.5, "step": 0.5}}
        )
        assert axis.values == (0.0, 0.5, 1.0, 1.5)

    def test_range_rejects_bad_shapes(self):
        for payload in (
            {"field": "f", "range": {"start": 0}},
            {"field": "f", "range": {"start": 0, "stop": 2, "step": 0}},
            {"field": "f", "range": {"start": 3, "stop": 1}},
            {"field": "f", "range": {"start": 0, "stop": 2, "junk": 1}},
        ):
            with pytest.raises(SpecificationError):
                SweepAxis.from_dict(payload)

    def test_exactly_one_of_values_and_range(self):
        with pytest.raises(SpecificationError, match="exactly one"):
            SweepAxis.from_dict({"field": "f"})
        with pytest.raises(SpecificationError, match="exactly one"):
            SweepAxis.from_dict(
                {"field": "f", "values": [1], "range": {"start": 0,
                                                        "stop": 1}}
            )

    def test_empty_values_rejected(self):
        with pytest.raises(SpecificationError, match="at least one"):
            SweepAxis("f", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(SpecificationError, match="duplicate values"):
            SweepAxis("faults.probability", (0.1, 0.2, 0.1))
        # Unhashable values deduplicate by content too.
        with pytest.raises(SpecificationError, match="duplicate values"):
            SweepAxis("scheduler_policy", (["greedy"], ["greedy"]))

    def test_bad_field_paths_rejected(self):
        for field in ("", "a..b", ".a", 7):
            with pytest.raises(SpecificationError):
                SweepAxis(field, (1,))


class TestDottedOverrides:
    def test_sets_nested_field(self):
        out = apply_overrides(
            base_scenario(), {"faults.kind": "bernoulli",
                              "faults.probability": 0.25}
        )
        assert out.faults.kind == "bernoulli"
        assert out.faults.probability == 0.25

    def test_creates_absent_intermediate_blocks(self):
        # The base has no traffic block; overriding through it builds
        # one with spec defaults for everything else.
        out = apply_overrides(base_scenario(), {"traffic.clients": 7})
        assert out.traffic is not None and out.traffic.clients == 7

    def test_list_index_segments(self):
        out = apply_overrides(base_scenario(), {"files.1.blocks": 4})
        assert out.files[1].blocks == 4
        with pytest.raises(SpecificationError, match="out of range"):
            apply_overrides(base_scenario(), {"files.9.blocks": 4})
        with pytest.raises(SpecificationError, match="list index"):
            apply_overrides(base_scenario(), {"files.map.blocks": 4})

    def test_scalar_intermediate_rejected(self):
        with pytest.raises(SpecificationError, match="is not an object"):
            apply_overrides(base_scenario(), {"name.x.y": 1})

    def test_bad_cell_value_fails_validation(self):
        with pytest.raises(SpecificationError):
            apply_overrides(
                base_scenario(), {"faults.kind": "cosmic-rays"}
            )

    def test_set_dotted_top_level(self):
        payload = {"a": 1}
        set_dotted(payload, "a", 2)
        set_dotted(payload, "b", 3)
        assert payload == {"a": 2, "b": 3}
        # A dict payload that shares its nested containers with another
        # gets copies of them on the written paths, so the other stays
        # as it was.
        base = {"faults": {"seed": 1}, "files": [{"blocks": 2}]}
        payload = dict(base)
        set_dotted(payload, "faults.seed", 2)
        set_dotted(payload, "files.0.blocks", 3)
        assert payload == {"faults": {"seed": 2}, "files": [{"blocks": 3}]}
        assert base == {"faults": {"seed": 1}, "files": [{"blocks": 2}]}


class TestSweepSpec:
    def spec(self) -> SweepSpec:
        return SweepSpec(
            name="grid",
            base=base_scenario(),
            axes=(
                SweepAxis("faults.kind", ("none", "bernoulli")),
                SweepAxis("faults.probability", (0.0, 0.1, 0.2)),
            ),
        )

    def test_total_and_expansion_order(self):
        spec = self.spec()
        assert spec.total_cells == 6
        cells = spec.cells()
        assert len(cells) == 6
        # Row-major: the first axis varies slowest.
        kinds = [dict(cell.overrides)["faults.kind"] for cell in cells]
        assert kinds == ["none"] * 3 + ["bernoulli"] * 3
        assert [cell.index for cell in cells] == list(range(6))

    def test_cell_keys_are_stable_and_distinct(self):
        cells = self.spec().cells()
        keys = [cell.key for cell in cells]
        assert len(set(keys)) == 6
        assert keys == [cell.key for cell in self.spec().cells()]
        assert keys[1] == 'faults.kind="none";faults.probability=0.1'

    def test_cells_carry_validated_scenarios(self):
        for cell in self.spec().cells():
            overrides = dict(cell.overrides)
            assert cell.scenario.faults.kind == overrides["faults.kind"]

    def test_no_axes_is_a_single_cell(self):
        spec = SweepSpec(name="point", base=base_scenario())
        cells = spec.cells()
        assert spec.total_cells == 1 and len(cells) == 1
        assert cells[0].key == "" and cells[0].overrides == ()

    def test_duplicate_axis_fields_rejected(self):
        with pytest.raises(SpecificationError, match="duplicate axis"):
            SweepSpec(
                name="dup",
                base=base_scenario(),
                axes=(
                    SweepAxis("faults.probability", (0.0,)),
                    SweepAxis("faults.probability", (0.1,)),
                ),
            )

    def test_json_round_trip(self):
        spec = self.spec()
        again = SweepSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert again.base.to_dict() == spec.base.to_dict()

    def test_file_round_trip(self, tmp_path):
        spec = self.spec()
        path = tmp_path / "grid.json"
        spec.save(path)
        assert SweepSpec.from_file(path).to_dict() == spec.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecificationError, match="unknown keys"):
            SweepSpec.from_dict(
                {"name": "x", "base": base_scenario().to_dict(),
                 "grid": []}
            )

    def test_base_required(self):
        missing = r"missing required keys \['base'\]"
        with pytest.raises(SpecificationError, match=missing):
            SweepSpec.from_dict({"name": "x"})

    def test_invalid_cell_fails_at_expansion(self):
        spec = SweepSpec(
            name="bad",
            base=base_scenario(),
            axes=(
                SweepAxis("faults.kind", ("bernoulli",)),
                SweepAxis("faults.probability", (0.0, 2.0)),
            ),
        )
        with pytest.raises(SpecificationError):
            spec.cells()
        wrong_type = SweepSpec(
            name="bad",
            base=base_scenario(),
            axes=(SweepAxis("files.0.fault_budget", (0, "1")),),
        )
        with pytest.raises(SpecificationError, match="fault_budget"):
            wrong_type.cells()
