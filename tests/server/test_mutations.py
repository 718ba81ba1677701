"""Tests for the server's runtime mutations."""

import pytest

from repro.api.scenario import Scenario
from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.errors import SpecificationError
from repro.ida.aida import RedundancyPolicy
from repro.server.mutations import (
    AddFile,
    FaultBudgetBump,
    ModeChange,
    MUTATION_KINDS,
    RemoveFile,
    TemporalEdit,
    mutation_from_dict,
)
from repro.rtdb.spec import TemporalItemSpec, TemporalSpec


def plain_scenario(**overrides) -> Scenario:
    params = dict(
        name="plain",
        files=(
            FileSpec("pos", 2, 4),
            FileSpec("map", 2, 8),
        ),
    )
    params.update(overrides)
    return Scenario(**params)


def moded_scenario(mode: str = "surveillance") -> Scenario:
    policy = RedundancyPolicy({
        "surveillance": {"pos": 0, "map": 0},
        "combat": {"pos": 1, "map": 0},
    })
    return plain_scenario(name="moded", redundancy=policy, mode=mode)


def temporal_scenario() -> Scenario:
    temporal = TemporalSpec(
        slot_ms=10,
        items=(
            TemporalItemSpec("tracks", 2, max_age_ms=400),
            TemporalItemSpec("terrain", 2, max_age_ms=4000),
        ),
        update_periods={"tracks": 8, "terrain": 200},
        mode="patrol",
        modes=("patrol", "combat"),
    )
    return Scenario(name="temporal", files=(), temporal=temporal)


class TestModeChange:
    def test_redundancy_mode_switch(self):
        after = ModeChange("combat").apply(moded_scenario())
        assert after.mode == "combat"
        assert after.design_fingerprint() != (
            moded_scenario().design_fingerprint()
        )

    def test_temporal_mode_switch(self):
        after = ModeChange("combat").apply(temporal_scenario())
        assert after.temporal.mode == "combat"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecificationError, match="declares modes"):
            ModeChange("stealth").apply(moded_scenario())
        with pytest.raises(SpecificationError, match="declares modes"):
            ModeChange("stealth").apply(temporal_scenario())

    def test_modeless_scenario_rejected(self):
        with pytest.raises(SpecificationError, match="modes do not"):
            ModeChange("combat").apply(plain_scenario())


class TestAddRemove:
    def test_add_plain_file(self):
        mutation = AddFile({"name": "wx", "blocks": 2, "latency": 9})
        after = mutation.apply(plain_scenario())
        assert [spec.name for spec in after.files] == ["pos", "map", "wx"]

    def test_add_generalized_file(self):
        base = plain_scenario(
            files=(GeneralizedFileSpec("a", 2, (4, 8, 12)),)
        )
        mutation = AddFile(
            {"name": "b", "blocks": 2, "latency_vector": [6, 10, 14]}
        )
        after = mutation.apply(base)
        assert after.files[-1].name == "b"

    def test_add_temporal_item_needs_period(self):
        item = {"name": "wx", "blocks": 2, "max_age_ms": 1000}
        with pytest.raises(SpecificationError, match="update_period"):
            AddFile(item).apply(temporal_scenario())
        after = AddFile(item, update_period=50).apply(temporal_scenario())
        assert "wx" in after.temporal.update_periods
        assert any(i.name == "wx" for i in after.temporal.items)

    def test_update_period_rejected_for_plain(self):
        mutation = AddFile(
            {"name": "wx", "blocks": 2, "latency": 9}, update_period=5
        )
        with pytest.raises(SpecificationError, match="temporal"):
            mutation.apply(plain_scenario())

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"name": "wx", "latency": 9}, r"keys \['blocks'\]"),
            ({"name": "wx", "blocks": 2}, r"keys \['latency'\]"),
            (
                {"name": "wx", "blocks": 2, "latency_vector": 5},
                "latency_vector must be a list",
            ),
            (
                {"name": "wx", "latency_vector": [6, 10, 14]},
                r"keys \['blocks'\]",
            ),
        ],
        ids=[
            "missing-blocks", "missing-latency", "scalar-latency-vector",
            "generalized-missing-blocks",
        ],
    )
    def test_malformed_file_entry_rejected(self, entry, match):
        base = plain_scenario()
        if "latency_vector" in entry:
            base = plain_scenario(
                files=(GeneralizedFileSpec("a", 2, (4, 8, 12)),)
            )
        with pytest.raises(SpecificationError, match=match):
            AddFile(entry).apply(base)

    def test_remove_plain_file(self):
        after = RemoveFile("map").apply(plain_scenario())
        assert [spec.name for spec in after.files] == ["pos"]

    def test_remove_unknown_rejected(self):
        with pytest.raises(SpecificationError, match="not in"):
            RemoveFile("ufo").apply(plain_scenario())

    def test_remove_temporal_item(self):
        after = RemoveFile("terrain").apply(temporal_scenario())
        assert [i.name for i in after.temporal.items] == ["tracks"]
        assert "terrain" not in after.temporal.update_periods

    def test_remove_item_still_read_rejected(self):
        from repro.rtdb.spec import TransactionSpec

        temporal = temporal_scenario().temporal
        temporal = TemporalSpec(
            slot_ms=temporal.slot_ms,
            items=temporal.items,
            update_periods=dict(temporal.update_periods),
            mode=temporal.mode,
            modes=temporal.modes,
            transactions=(
                TransactionSpec("scan", ("terrain",), deadline_slots=500),
            ),
        )
        scenario = Scenario(name="txn", files=(), temporal=temporal)
        with pytest.raises(SpecificationError, match="still read"):
            RemoveFile("terrain").apply(scenario)


class TestFaultBudgetBump:
    def test_plain_bump(self):
        after = FaultBudgetBump("pos", +1).apply(plain_scenario())
        assert after.files[0].fault_budget == 1

    def test_redundancy_bump_edits_active_mode(self):
        before = moded_scenario()
        after = FaultBudgetBump("map", +2).apply(before)
        assert after.redundancy.fault_budget("surveillance", "map") == 2
        # The other mode is untouched.
        assert after.redundancy.fault_budget("combat", "map") == 0

    def test_temporal_bump_edits_active_mode_criticality(self):
        after = FaultBudgetBump("tracks", +1).apply(temporal_scenario())
        item = next(i for i in after.temporal.items if i.name == "tracks")
        assert item.criticality["patrol"] == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(SpecificationError, match="negative"):
            FaultBudgetBump("pos", -1).apply(plain_scenario())

    def test_generalized_rejected(self):
        base = plain_scenario(
            files=(GeneralizedFileSpec("a", 2, (4, 8, 12)),)
        )
        with pytest.raises(SpecificationError, match="latency vectors"):
            FaultBudgetBump("a", +1).apply(base)


class TestTemporalEdit:
    def test_update_period_is_runtime_only(self):
        before = temporal_scenario()
        after = TemporalEdit("tracks", update_period=16).apply(before)
        assert after.temporal.update_periods["tracks"] == 16
        assert after.design_fingerprint() == before.design_fingerprint()

    def test_max_age_redesigns(self):
        before = temporal_scenario()
        after = TemporalEdit("tracks", max_age_ms=800).apply(before)
        item = next(i for i in after.temporal.items if i.name == "tracks")
        assert item.max_age_ms == 800
        assert after.design_fingerprint() != before.design_fingerprint()

    def test_velocity_item_age_edit_rejected(self):
        temporal = TemporalSpec(
            slot_ms=10,
            items=(
                TemporalItemSpec(
                    "air", 2, velocity_kmh=900, accuracy_m=100
                ),
            ),
            update_periods={"air": 24},
        )
        scenario = Scenario(name="v", files=(), temporal=temporal)
        with pytest.raises(SpecificationError, match="velocity"):
            TemporalEdit("air", max_age_ms=100).apply(scenario)

    def test_needs_at_least_one_field(self):
        with pytest.raises(SpecificationError, match="give"):
            TemporalEdit("tracks").apply(temporal_scenario())

    def test_non_temporal_scenario_rejected(self):
        with pytest.raises(SpecificationError, match="no temporal"):
            TemporalEdit("pos", update_period=4).apply(plain_scenario())


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "mutation",
        [
            ModeChange("combat"),
            AddFile({"name": "wx", "blocks": 2, "latency": 9}),
            AddFile({"name": "wx", "blocks": 2, "max_age_ms": 100},
                    update_period=5),
            RemoveFile("map"),
            FaultBudgetBump("pos", -1),
            TemporalEdit("tracks", update_period=16),
            TemporalEdit("tracks", max_age_ms=800),
            TemporalEdit("tracks", update_period=16, max_age_ms=800),
        ],
    )
    def test_round_trip(self, mutation):
        assert mutation_from_dict(mutation.to_dict()) == mutation

    def test_every_kind_is_dispatchable(self):
        assert set(MUTATION_KINDS) == {
            "mode_change", "add_file", "remove_file", "fault_budget",
            "temporal_edit",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError, match="kind must be one of"):
            mutation_from_dict({"kind": "self_destruct"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecificationError, match="unknown keys"):
            mutation_from_dict({"kind": "mode_change", "mode": "x", "q": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecificationError, match="must be an object"):
            mutation_from_dict(["mode_change"])

    def test_describe_is_a_string(self):
        for mutation in (
            ModeChange("combat"),
            AddFile({"name": "wx", "blocks": 2, "latency": 9}),
            RemoveFile("map"),
            FaultBudgetBump("pos", +1),
            TemporalEdit("tracks", update_period=16),
        ):
            assert isinstance(mutation.describe(), str)
            assert mutation.describe()
