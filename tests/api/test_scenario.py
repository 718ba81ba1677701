"""Tests for the declarative Scenario specification."""

import json

import numpy as np
import pytest

from repro.api import FaultSpec, Scenario, WorkloadSpec
from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.ida.aida import RedundancyPolicy
from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    NoFaults,
)
from repro.errors import SpecificationError


def regular_scenario(**overrides) -> Scenario:
    params = dict(
        name="demo",
        files=(
            FileSpec("pos", 4, 2, fault_budget=2),
            FileSpec("map", 6, 5, fault_budget=1),
        ),
        faults=FaultSpec(kind="bernoulli", probability=0.1, seed=3),
        workload=WorkloadSpec(requests=30, horizon=150, zipf_skew=1.0, seed=5),
        delay_errors=1,
    )
    params.update(overrides)
    return Scenario(**params)


class TestFaultSpec:
    @pytest.mark.parametrize(
        "spec, model_type",
        [
            (FaultSpec(), NoFaults),
            (FaultSpec(kind="bernoulli", probability=0.2), BernoulliFaults),
            (FaultSpec(kind="burst", p_enter=0.1, p_exit=0.5), BurstFaults),
            (
                FaultSpec(kind="adversarial", lost_slots=(1, 5)),
                AdversarialFaults,
            ),
        ],
    )
    def test_build_dispatch(self, spec, model_type):
        assert isinstance(spec.build(), model_type)

    def test_round_trip(self):
        spec = FaultSpec(kind="burst", p_enter=0.05, p_exit=0.3, seed=9)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_only_active_parameters(self):
        assert set(FaultSpec().to_dict()) == {"kind"}
        assert "p_enter" not in FaultSpec(
            kind="bernoulli", probability=0.5
        ).to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError, match="kind must be one of"):
            FaultSpec(kind="cosmic-rays")

    def test_bad_probability_rejected_eagerly(self):
        with pytest.raises(SpecificationError):
            FaultSpec(kind="bernoulli", probability=1.5)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecificationError, match="unknown keys"):
            FaultSpec.from_dict({"kind": "none", "probabilty": 0.1})

    def test_non_iterable_lost_slots_rejected_from_dict(self):
        with pytest.raises(SpecificationError, match="lost_slots"):
            FaultSpec.from_dict({"kind": "adversarial", "lost_slots": 5})

    @pytest.mark.parametrize("slots", [["4"], [1.5], [True], [1.5, 7]])
    def test_non_integer_lost_slots_rejected(self, slots):
        # A string would crash the simulator, a float never matches yet
        # counts against the budget, and true would lose slot 1.
        payload = {"kind": "adversarial", "lost_slots": slots}
        wrong = r"lost_slots\[0\] must be an integer"
        with pytest.raises(SpecificationError, match=wrong):
            FaultSpec.from_dict(payload)
        scenario = regular_scenario().to_dict()
        scenario["faults"] = payload
        with pytest.raises(SpecificationError, match=wrong):
            Scenario.from_dict(scenario)

    def test_numpy_lost_slots_stored_as_plain_ints(self):
        spec = FaultSpec(kind="adversarial", lost_slots=np.array([9, 2]))
        assert spec.lost_slots == (9, 2)
        assert all(type(t) is int for t in spec.lost_slots)
        assert json.loads(json.dumps(spec.to_dict()))["lost_slots"] == [9, 2]


class TestWorkloadSpec:
    def test_round_trip(self):
        spec = WorkloadSpec(requests=10, horizon=50, zipf_skew=0.5, seed=2)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests": 0},
            {"horizon": 0},
            {"zipf_skew": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SpecificationError):
            WorkloadSpec(**kwargs)


class TestScenarioValidation:
    def test_empty_files_rejected(self):
        with pytest.raises(SpecificationError, match="at least one file"):
            Scenario(name="x", files=())

    def test_empty_name_rejected(self):
        with pytest.raises(SpecificationError, match="name"):
            Scenario(name="", files=(FileSpec("a", 1, 2),))

    def test_mixed_models_rejected(self):
        with pytest.raises(SpecificationError, match="mix"):
            Scenario(
                name="x",
                files=(
                    FileSpec("a", 1, 2),
                    GeneralizedFileSpec("b", 1, (4,)),
                ),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecificationError, match="duplicate"):
            Scenario(
                name="x",
                files=(FileSpec("a", 1, 2), FileSpec("a", 2, 4)),
            )

    def test_bandwidth_on_generalized_rejected(self):
        with pytest.raises(SpecificationError, match="bandwidth"):
            Scenario(
                name="x",
                files=(GeneralizedFileSpec("a", 1, (4,)),),
                bandwidth=3,
            )

    def test_mode_requires_redundancy(self):
        with pytest.raises(SpecificationError, match="together"):
            regular_scenario(mode="combat")

    def test_redundancy_requires_mode(self):
        with pytest.raises(SpecificationError, match="together"):
            regular_scenario(
                redundancy=RedundancyPolicy({"combat": {"pos": 1}})
            )

    def test_redundancy_on_generalized_rejected(self):
        with pytest.raises(SpecificationError, match="regular files"):
            Scenario(
                name="x",
                files=(GeneralizedFileSpec("a", 1, (4,)),),
                mode="combat",
                redundancy=RedundancyPolicy({"combat": {"a": 1}}),
            )

    def test_unknown_policy_string_rejected(self):
        with pytest.raises(SpecificationError, match="policy"):
            regular_scenario(scheduler_policy="fastest")

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(SpecificationError, match="unknown scheduler"):
            regular_scenario(scheduler_policy=("greedy", "nope"))

    def test_negative_delay_errors_rejected(self):
        with pytest.raises(SpecificationError, match="delay_errors"):
            regular_scenario(delay_errors=-1)

    def test_bad_block_size_rejected(self):
        with pytest.raises(SpecificationError, match="block_size"):
            regular_scenario(block_size=0)


class TestRoundTrip:
    def test_dict_round_trip_regular(self):
        scenario = regular_scenario(
            mode="combat",
            redundancy=RedundancyPolicy(
                {"combat": {"pos": 3}}, default=1
            ),
            scheduler_policy=("greedy", "exact"),
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_dict_round_trip_generalized(self):
        scenario = Scenario(
            name="gen",
            files=(
                GeneralizedFileSpec("F", 2, (5, 6, 6)),
                GeneralizedFileSpec("H", 1, (9, 12)),
            ),
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip(self):
        scenario = regular_scenario()
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario

    def test_to_dict_is_json_serializable(self):
        json.dumps(regular_scenario().to_dict())

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = regular_scenario()
        scenario.save(path)
        assert Scenario.from_file(path) == scenario

    def test_missing_file_is_specification_error(self, tmp_path):
        with pytest.raises(SpecificationError, match="cannot read"):
            Scenario.from_file(tmp_path / "absent.json")

    def test_invalid_json_is_specification_error(self):
        with pytest.raises(SpecificationError, match="invalid scenario"):
            Scenario.from_json("{not json")

    def test_unknown_scenario_keys_rejected(self):
        payload = regular_scenario().to_dict()
        payload["bandwith"] = 4
        with pytest.raises(SpecificationError, match="unknown keys"):
            Scenario.from_dict(payload)

    def test_missing_required_file_keys_rejected(self):
        with pytest.raises(SpecificationError, match="missing required"):
            Scenario.from_dict(
                {"name": "x", "files": [{"name": "a", "blocks": 2}]}
            )

    def test_non_iterable_latency_vector_rejected(self):
        with pytest.raises(SpecificationError, match="latency_vector"):
            Scenario.from_dict(
                {"name": "x", "files": [{"name": "a", "blocks": 2,
                                         "latency_vector": 5}]}
            )

    def test_non_object_file_entry_rejected(self):
        with pytest.raises(SpecificationError, match="must be an object"):
            Scenario.from_dict({"name": "x", "files": ["a:2:4"]})

    def test_non_list_files_rejected(self):
        with pytest.raises(SpecificationError, match="files must be a list"):
            Scenario.from_dict({"name": "x", "files": 42})

    def test_data_payload_round_trips(self):
        scenario = Scenario(
            name="payload",
            files=(FileSpec("a", 2, 4, data=b"\x00secret\xff"),),
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored.files[0].data == b"\x00secret\xff"

    def test_bad_base64_data_rejected(self):
        with pytest.raises(SpecificationError, match="base64"):
            Scenario.from_dict(
                {"name": "x", "files": [{"name": "a", "blocks": 2,
                                         "latency": 4, "data": "%%%"}]}
            )

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"faults": 42}, "faults must be an object"),
            ({"workload": "lots"}, "workload must be an object"),
            ({"redundancy": 7}, "redundancy must be an object"),
            (
                {"redundancy": {"budgets": "oops", "default": 0}},
                "budgets must be an object",
            ),
            (
                {"redundancy": {"budgets": {"combat": {"a": "3"}},
                                "default": 0}},
                r"budgets\['combat'\]\['a'\] must be an integer",
            ),
        ],
    )
    def test_non_object_nested_payloads_rejected(self, payload, match):
        base = {"name": "x",
                "files": [{"name": "a", "blocks": 2, "latency": 4}]}
        with pytest.raises(SpecificationError, match=match):
            Scenario.from_dict({**base, **payload})

    def test_defaults_applied_for_omitted_keys(self):
        scenario = Scenario.from_dict(
            {"name": "tiny", "files": [{"name": "a", "blocks": 1,
                                        "latency": 2}]}
        )
        assert scenario.block_size == 64
        assert scenario.scheduler_policy == "auto"
        assert scenario.workload is None
        assert scenario.faults == FaultSpec()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"block_size": None}, "block_size must be an integer"),
            ({"delay_errors": "two"}, "delay_errors must be an integer"),
            ({"scheduler_policy": 3}, "scheduler_policy must be"),
            ({"workload": {"requests": None, "horizon": 10}},
             "requests must be an integer"),
            ({"faults": {"kind": "bernoulli", "probability": None}},
             "probability must be a number"),
            ({"files": [{"name": "a", "blocks": 2.0, "latency": 4}]},
             r"files\[0\]\.blocks must be an integer, got float"),
            ({"files": [{"name": "a", "blocks": True,
                         "latency_vector": [4]}]},
             r"files\[0\]\.blocks must be an integer, got bool"),
        ],
    )
    def test_null_and_wrong_typed_scalars_rejected(self, payload, match):
        base = {"name": "x",
                "files": [{"name": "a", "blocks": 2, "latency": 4}]}
        with pytest.raises(SpecificationError, match=match):
            Scenario.from_dict({**base, **payload})

    def test_null_scheduler_policy_means_auto(self):
        scenario = Scenario.from_dict(
            {"name": "x", "scheduler_policy": None,
             "files": [{"name": "a", "blocks": 2, "latency": 4}]}
        )
        assert scenario.scheduler_policy == "auto"


class TestEffectiveFiles:
    def test_redundancy_overrides_budgets(self):
        scenario = regular_scenario(
            mode="combat",
            redundancy=RedundancyPolicy(
                {"combat": {"pos": 3}}, default=0
            ),
        )
        budgets = {
            spec.name: spec.fault_budget
            for spec in scenario.effective_files
        }
        assert budgets == {"pos": 3, "map": 0}

    def test_without_redundancy_files_unchanged(self):
        scenario = regular_scenario()
        assert scenario.effective_files == scenario.files
