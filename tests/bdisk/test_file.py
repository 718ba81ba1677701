"""Tests for broadcast file specifications."""

from fractions import Fraction

import pytest

from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.core.conditions import bc
from repro.errors import SpecificationError


class TestFileSpec:
    def test_demand(self):
        spec = FileSpec("F", blocks=4, latency=2, fault_budget=2)
        assert spec.slots_per_window == 6
        assert spec.demand == Fraction(6, 2)

    def test_as_task_scales_window_by_bandwidth(self):
        spec = FileSpec("F", blocks=4, latency=2, fault_budget=1)
        task = spec.as_task(bandwidth=5)
        assert task.a == 5
        assert task.b == 10

    def test_as_task_rejects_bad_bandwidth(self):
        with pytest.raises(SpecificationError):
            FileSpec("F", 1, 1).as_task(0)

    def test_validation(self):
        with pytest.raises(SpecificationError):
            FileSpec("F", 0, 1)
        with pytest.raises(SpecificationError):
            FileSpec("F", 1, 0)
        with pytest.raises(SpecificationError):
            FileSpec("F", 1, 1, fault_budget=-1)
        # Sizes must be ints: a str, None, list, float or bool is named.
        for kwargs, key in [
            ({"blocks": "2"}, "blocks"),
            ({"blocks": 2.0}, "blocks"),
            ({"blocks": True}, "blocks"),
            ({"latency": None}, "latency"),
            ({"latency": [5, 6]}, "latency"),
            ({"fault_budget": "1"}, "fault_budget"),
            ({"fault_budget": True}, "fault_budget"),
        ]:
            params = {"blocks": 1, "latency": 1, **kwargs}
            with pytest.raises(SpecificationError, match=key):
                FileSpec("F", **params)

    def test_payload_deterministic(self):
        spec = FileSpec("F", 3, 5)
        assert spec.payload() == spec.payload()
        assert len(spec.payload(block_size=32)) == 3 * 32

    def test_explicit_data_wins(self):
        spec = FileSpec("F", 1, 5, data=b"hello")
        assert spec.payload() == b"hello"


class TestGeneralizedFileSpec:
    def test_condition_round_trip(self):
        spec = GeneralizedFileSpec("F", 2, (5, 6, 6))
        assert spec.as_condition() == bc("F", 2, [5, 6, 6])
        assert spec.max_faults == 2

    def test_validation_delegated_to_bc(self):
        with pytest.raises(SpecificationError):
            GeneralizedFileSpec("F", 3, (5, 3))
        with pytest.raises(SpecificationError, match="size m"):
            GeneralizedFileSpec("F", True, (5,))
        with pytest.raises(SpecificationError, match=r"d\(1\)"):
            GeneralizedFileSpec("F", 1, (5, True))

    def test_regular_constructor(self):
        spec = GeneralizedFileSpec.regular("F", 2, 9)
        assert spec.latency_vector == (9,)
        assert spec.max_faults == 0

    def test_uniform_constructor_encodes_section_32_model(self):
        spec = GeneralizedFileSpec.uniform("F", 2, 9, faults=3)
        assert spec.latency_vector == (9, 9, 9, 9)

    def test_uniform_rejects_negative_faults(self):
        with pytest.raises(SpecificationError):
            GeneralizedFileSpec.uniform("F", 2, 9, faults=-1)

    def test_payload(self):
        spec = GeneralizedFileSpec("F", 2, (8,), data=b"xy")
        assert spec.payload() == b"xy"
        synthesized = GeneralizedFileSpec("G", 2, (8,)).payload(16)
        assert len(synthesized) == 32
