"""Copy-on-write sweep expansion against the whole-scenario round trip.

:mod:`expand_reference` keeps the round trip every cell used to pay:
serialize the base, write the overrides into the dict form, parse it
again.  The expander must build the same cells - equal scenarios with
byte-identical dict forms and fingerprints, and the same keys - and
raise the same error, word for word, for every malformed override.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from expand_reference import reference_apply_overrides
from repro.api.scenario import FAULT_KINDS, FaultSpec, Scenario
from repro.bdisk.file import FileSpec
from repro.errors import SpecificationError
from repro.sweep import SweepAxis, SweepSpec, apply_overrides
from repro.sweep.expand import normalized, overridden
from repro.sweep.spec import _value_key

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def outcome(build):
    """What ``build()`` gives, in comparable form: the scenario and its
    serialized forms, or the error's type and text."""
    try:
        scenario = build()
    except Exception as error:  # noqa: BLE001 - the type is compared
        return ("error", type(error), str(error))
    return (
        "ok",
        scenario,
        json.dumps(scenario.to_dict()),
        scenario.design_fingerprint(),
        scenario.scenario_fingerprint(),
    )


def assert_same(base, overrides):
    # Each value gets its own copy, as JSON-parsed overrides have: the
    # reference writes values in place, so two paths drawn with one
    # shared ``{}`` would otherwise nest it in itself.
    expected = outcome(
        lambda: reference_apply_overrides(
            base,
            {path: copy.deepcopy(value) for path, value in overrides.items()},
        )
    )
    assert outcome(lambda: apply_overrides(base, overrides)) == expected
    # The amortized path cells() takes: one normalization, then cells.
    assert outcome(lambda: overridden(normalized(base), overrides)) == (
        expected
    )


def reference_key(overrides) -> str:
    return ";".join(
        f"{field}={json.dumps(value, sort_keys=True, separators=(',', ':'))}"
        for field, value in overrides
    )


def grid_catalogue(files: int) -> list[dict]:
    """A seeded 40-file catalogue in the sweep-grid benchmark's shape."""
    rng = random.Random(0x1997)
    catalogue = []
    for index in range(files):
        blocks = rng.randint(2, 6)
        catalogue.append({
            "name": f"f{index:02d}",
            "blocks": blocks,
            "latency": rng.randint(3 * blocks, 6 * blocks),
            "fault_budget": rng.randint(0, 2),
        })
    return catalogue


def grid_spec() -> SweepSpec:
    return SweepSpec.from_dict({
        "name": "grid",
        "base": {
            "name": "grid-base",
            "files": grid_catalogue(40),
            "workload": {"requests": 6, "horizon": 150, "seed": 7},
        },
        "axes": [
            {"field": "faults.kind", "values": ["bernoulli"]},
            {"field": "faults.probability",
             "values": [0.0, 0.01, 0.05, 0.1, 0.3]},
            {"field": "faults.seed", "values": [1, 2, 3, 4]},
            {"field": "files.0.fault_budget", "values": [0, 1, 2]},
        ],
    })


SPECS = {
    "fault-grid": lambda: SweepSpec.from_file(
        EXAMPLES / "sweep_fault_grid.json"
    ),
    "multichannel": lambda: SweepSpec.from_file(
        EXAMPLES / "sweep_multichannel.json"
    ),
    "40-file grid": grid_spec,
}


class TestEveryCell:
    def test_cells_match_the_round_trip(self):
        for name, make in SPECS.items():
            spec = make()
            cells = spec.cells()
            assert len(cells) == spec.total_cells, name
            for index, cell in enumerate(cells):
                overrides = dict(cell.overrides)
                reference = reference_apply_overrides(
                    spec.base, copy.deepcopy(overrides)
                )
                assert cell.index == index
                assert cell.key == reference_key(cell.overrides)
                assert cell.scenario == reference, (name, cell.key)
                assert json.dumps(cell.scenario.to_dict()) == json.dumps(
                    reference.to_dict()
                )
                assert cell.scenario.design_fingerprint() == (
                    reference.design_fingerprint()
                )
                assert cell.scenario.scenario_fingerprint() == (
                    reference.scenario_fingerprint()
                )

    def test_untouched_subtrees_are_shared_with_the_base(self):
        spec = grid_spec()
        cells = spec.cells()
        first, last = cells[0].scenario, cells[-1].scenario
        # files.0 is on an override path; the other 39 entries and the
        # workload block are the objects the base was normalized to.
        assert all(a is b for a, b in zip(first.files[1:], last.files[1:]))
        assert first.workload is last.workload
        assert first.files[0] is not last.files[0]

    def test_object_valued_axis_is_not_edited_in_place(self):
        # A deeper axis writes into a copy of the object a shallower
        # axis set; the axis value, and with it the next cell's key,
        # stays as declared.
        spec = SweepSpec.from_dict({
            "name": "nested",
            "base": {"name": "b", "files": [
                {"name": "a", "blocks": 1, "latency": 4},
            ]},
            "axes": [
                {"field": "faults", "values": [{"kind": "bernoulli"}]},
                {"field": "faults.probability", "values": [0.1, 0.2]},
            ],
        })
        cells = spec.cells()
        assert [cell.key for cell in cells] == [
            'faults={"kind":"bernoulli"};faults.probability=0.1',
            'faults={"kind":"bernoulli"};faults.probability=0.2',
        ]
        assert [cell.scenario.faults.probability for cell in cells] == [
            0.1, 0.2,
        ]
        assert spec.axes[0].values == ({"kind": "bernoulli"},)


def regular_base() -> Scenario:
    return Scenario.from_dict({
        "name": "regular",
        "files": [
            {"name": "pos", "blocks": 2, "latency": 6, "fault_budget": 1},
            {"name": "map", "blocks": 3, "latency": 12},
            {"name": "wx", "blocks": 2, "latency": 20, "fault_budget": 2},
        ],
        "faults": {"kind": "bernoulli", "probability": 0.05, "seed": 3},
        "workload": {"requests": 20, "horizon": 100, "seed": 1},
        "scheduler_policy": ["greedy", "exact"],
        "channels": {
            "count": 2, "assignment": "replicated", "fault_budgets": [0, 1],
        },
    })


def stored_parameters_base(kind: str) -> Scenario:
    """A base whose fault spec stores parameters its kind never writes."""
    return Scenario(
        name="stored",
        files=(FileSpec("a", 2, 8), FileSpec("b", 2, 10)),
        faults=FaultSpec(
            kind=kind, probability=0.3, p_enter=0.2, p_exit=0.6,
            lost_slots=(1, 4), seed=9,
        ),
    )


def temporal_base() -> Scenario:
    return Scenario.from_file(EXAMPLES / "scenario_awacs_temporal.json")


#: Values of every JSON type, in and out of each field's range.
ANY_VALUE = st.one_of(
    st.integers(-2, 40),
    st.sampled_from([0.0, 0.05, 0.5, 1.5, 2.0, -0.1]),
    st.sampled_from(["x", "", "auto", "greedy", "none", "bernoulli"]),
    st.booleans(),
    st.none(),
    st.sampled_from([[], {}, [1, "a"], {"a": 1}, ["greedy"]]),
)


def drawn(fields, values=ANY_VALUE):
    """Override sets over ``fields``: one to three distinct paths."""
    return st.dictionaries(
        st.sampled_from(fields), values, min_size=1, max_size=3
    )


class TestDrawnOverrides:
    @settings(max_examples=60, deadline=None)
    @given(drawn(["block_size", "scheduler_policy", "delay_errors"]))
    def test_root_leaves(self, overrides):
        assert_same(regular_base(), overrides)

    @settings(max_examples=80, deadline=None)
    @given(drawn([
        "faults.kind", "faults.probability", "faults.seed",
        "faults.p_enter", "faults.lost_slots", "workload.requests",
        "workload.zipf_skew", "channels.count", "channels.quorum",
        "channels.assignment", "channels.tuning_cost",
        "channels.fault_budgets",
    ]))
    def test_nested_leaves(self, overrides):
        assert_same(regular_base(), overrides)

    @settings(max_examples=40, deadline=None)
    @given(drawn(["traffic.clients", "traffic.duration", "traffic.seed"]))
    def test_absent_intermediates(self, overrides):
        assert regular_base().traffic is None
        assert_same(regular_base(), overrides)

    @settings(max_examples=60, deadline=None)
    @given(drawn([
        f"files.{index}.{leaf}"
        for index in (0, 1, 2, 3, 7)
        for leaf in ("blocks", "latency", "fault_budget")
    ]))
    def test_list_indexes(self, overrides):
        assert_same(regular_base(), overrides)

    @settings(max_examples=50, deadline=None)
    @given(drawn(
        [
            "temporal.items.0.blocks", "temporal.items.2.blocks",
            "temporal.items.5.blocks", "temporal.update_periods.terrain",
            "temporal.update_periods.ghost", "temporal.mode",
            "files.0.blocks",
        ],
        st.one_of(
            st.integers(-1, 6),
            st.sampled_from(["combat", "patrol", "x", None, 1.5]),
        ),
    ))
    def test_temporal_paths(self, overrides):
        assert_same(temporal_base(), overrides)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(FAULT_KINDS),
        st.one_of(st.none(), st.sampled_from(FAULT_KINDS)),
        st.dictionaries(
            st.sampled_from([
                "faults.probability", "faults.seed",
                "faults.lost_slots.0", "block_size",
            ]),
            st.sampled_from([0.1, 0.0, 4]),
            max_size=2,
        ),
    )
    def test_fault_kind_over_stored_parameters(self, before, after, more):
        # With or without a faults.kind override, a parameter the base
        # stores but never writes is reset, as the round trip resets it.
        base = stored_parameters_base(before)
        assert base.faults.probability == 0.3
        overrides = dict(more)
        if after is not None:
            overrides["faults.kind"] = after
        assert_same(base, overrides)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.booleans(),
        st.permutations(["channels.count", "channels.quorum"]),
    )
    def test_overrides_invalid_only_midway(self, count, quorum, kind, order):
        # A quorum above the old count, or a probability the old kind
        # would not take, is only ever checked in the final state.
        values = {"channels.count": count, "channels.quorum": quorum}
        overrides = {field: values[field] for field in order}
        if kind:
            overrides["faults.kind"] = "burst"
            overrides["faults.p_enter"] = 0.1
        assert_same(regular_base(), overrides)

    @settings(max_examples=80, deadline=None)
    @given(drawn([
        "faults.kind.x", "name.x", "name.x.y", "files.x.blocks",
        "files.-1.blocks", "files.9", "files.0.blocks.0",
        "faults.lost_slots.0", "faults.lost_slots.x", "workload.x",
        "nothing.here", "channels.explicit.pos", "temporal.items",
        "scheduler_policy.0", "scheduler_policy.2", "scheduler_policy.0.x",
        "channels.fault_budgets.1", "channels.fault_budgets.1.x",
        "redundancy.budgets.combat.pos",
    ]))
    def test_bad_paths_and_values(self, overrides):
        assert_same(regular_base(), overrides)

    def test_one_value_on_nested_paths(self):
        # Hypothesis can hand the same sampled ``{}`` to both paths.
        shared = {}
        assert_same(regular_base(), {
            "channels.fault_budgets.1": shared,
            "channels.fault_budgets.1.x": shared,
        })

    def test_pinned_messages(self):
        cases = {
            ("faults.probability", "x"): (
                "faults.probability must be a number, got str: 'x'"
            ),
            ("files.7.blocks", 2): (
                "sweep field 'files.7': index 7 out of range (list has 3 "
                "items)"
            ),
            ("name.x.y", 1): (
                "sweep field 'name.x.y': 'name.x' is not an object (str)"
            ),
            ("files.map.blocks", 4): (
                "sweep field 'files.map': 'map' must be a list index"
            ),
        }
        for (field, value), message in cases.items():
            for apply in (apply_overrides, reference_apply_overrides):
                try:
                    apply(regular_base(), {field: value})
                except Exception as error:  # noqa: BLE001
                    assert str(error) == message, (apply, field)
                else:
                    raise AssertionError(f"{field} was accepted")


#: Grid fields per base, and the values their axes draw from: mostly
#: valid, with one wrong-typed value per field.
GRID_FIELDS = {
    regular_base: {
        "faults.kind": ["none", "bernoulli", "burst", "adversarial"],
        "faults.probability": [0.0, 0.05, 0.2],
        "faults.seed": [1, 2, 3],
        "files.0.fault_budget": [0, 1, 2],
        "files.1.blocks": [1, 2, 3],
        "channels.count": [1, 2, 3],
        "channels.quorum": [1, 2],
        "workload.zipf_skew": [0.0, 0.5, 1.2],
        "traffic.clients": [5, 10],
        "block_size": [32, 64],
    },
    temporal_base: {
        "temporal.items.0.blocks": [1, 2, 3],
        "temporal.update_periods.terrain": [100, 30000],
        "temporal.mode": ["combat", "patrol"],
        "faults.probability": [0.0, 0.02],
        "traffic.clients": [5, 10],
    },
}


class TestDrawnGrids:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_cell_matches_the_round_trip(self, data):
        # cells() shares one normalized base across the grid: no cell
        # may see another's overrides.
        make = data.draw(st.sampled_from(list(GRID_FIELDS)))
        base = make()
        fields = data.draw(st.lists(
            st.sampled_from(list(GRID_FIELDS[make])), min_size=1,
            max_size=3, unique=True,
        ))
        axes = tuple(
            SweepAxis(field, tuple(data.draw(st.lists(
                st.sampled_from(GRID_FIELDS[make][field] + ["x"]),
                min_size=1, max_size=3, unique=True,
            ))))
            for field in fields
        )
        spec = SweepSpec(name="drawn", base=base, axes=axes)
        try:
            expected = [
                reference_apply_overrides(
                    base, copy.deepcopy(dict(zip(fields, combo)))
                )
                for combo in itertools.product(
                    *(axis.values for axis in axes)
                )
            ]
        except Exception as error:  # noqa: BLE001 - the type is compared
            expected = ("error", type(error), str(error))
        try:
            cells = spec.cells()
        except Exception as error:  # noqa: BLE001
            assert ("error", type(error), str(error)) == expected
            return
        assert [cell.scenario for cell in cells] == expected
        for cell, reference in zip(cells, expected):
            assert json.dumps(cell.scenario.to_dict()) == json.dumps(
                reference.to_dict()
            )
            assert cell.scenario.design_fingerprint() == (
                reference.design_fingerprint()
            )
            assert cell.scenario.scenario_fingerprint() == (
                reference.scenario_fingerprint()
            )



JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def dumped_key(value) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class TestValueKeys:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_drawn_values_render_as_json_dumps(self, value):
        assert _value_key(value) == dumped_key(value)

    def test_example_sweep_keys_render_as_json_dumps(self):
        for name, make in SPECS.items():
            spec = make()
            for axis in spec.axes:
                for value in axis.values:
                    assert _value_key(value) == dumped_key(value), name

    def test_unrenderable_values_raise_the_same_text(self):
        for value in (
            float("nan"), float("inf"), {1, 2}, object(), [1, {"a": b"x"}]
        ):
            try:
                dumped_key(value)
            except (TypeError, ValueError) as error:
                message = (
                    f"sweep axis value {value!r} is not JSON-serializable: "
                    f"{error}"
                )
            with pytest.raises(SpecificationError) as raised:
                _value_key(value)
            assert str(raised.value) == message
