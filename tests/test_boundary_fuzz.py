"""Boundary fuzz: every JSON entry point fails with a ``ReproError``.

Each malformed value is put at every position of every example payload
(scenarios, sweeps, the server scenario, the mutation script) and of one
payload per mutation kind; each variant must parse or raise a
:class:`~repro.errors.ReproError`.  Wrong types that once slipped
through - silently accepted, or raised as a bare ``TypeError`` - are
pinned to a :class:`~repro.errors.SpecificationError` that names their
field path.  A round-trip property covers every declared spec class.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.scenario import ChannelSpec, FaultSpec, Scenario, WorkloadSpec
from repro.bdisk.file import FileSpec
from repro.core.partition import partitioner_names
from repro.errors import ReproError, SpecificationError
from repro.ida.aida import RedundancyPolicy
from repro.rtdb.spec import TemporalItemSpec, TemporalSpec, TransactionSpec
from repro.server.mutations import (
    AddFile,
    FaultBudgetBump,
    ModeChange,
    RemoveFile,
    TemporalEdit,
    mutation_from_dict,
)
from repro.server.script import MutationScript, ScriptEntry
from repro.sweep import SweepAxis, SweepSpec
from repro.traffic.spec import TrafficSpec

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: The wrong-typed and edge values put at each position in turn.
VALUES = ("x", 1.5, True, None, [], {}, -1, 0, [1, "a"], {"a": 1})

#: One payload per mutation kind.
MUTATIONS = (
    {"kind": "mode_change", "mode": "combat"},
    {"kind": "add_file", "file": {"name": "wx", "blocks": 2,
                                  "max_age_ms": 100},
     "update_period": 5},
    {"kind": "remove_file", "name": "map"},
    {"kind": "fault_budget", "name": "pos", "delta": 1},
    {"kind": "temporal_edit", "name": "pos", "update_period": 16,
     "max_age_ms": 800},
)


def positions(node, path=()):
    """Every position below the root of a JSON document."""
    if path:
        yield path
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from positions(child, path + (key,))


def with_value(document, path, value):
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


def parser(document):
    if isinstance(document, list):
        return MutationScript.from_payload
    if "axes" in document:
        return SweepSpec.from_dict
    if "kind" in document:
        return mutation_from_dict
    return Scenario.from_dict


def load_example(name):
    return json.loads((EXAMPLES / name).read_text(encoding="utf-8"))


DOCUMENTS = {
    **{path.name: load_example(path.name)
       for path in sorted(EXAMPLES.glob("*.json"))},
    **{payload["kind"]: payload for payload in MUTATIONS},
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_position_parses_or_raises_a_repro_error(name):
    document = DOCUMENTS[name]
    parse = parser(document)
    escapes = []
    for path in positions(document):
        for value in VALUES:
            try:
                parse(with_value(document, path, value))
            except ReproError:
                pass
            except Exception as error:  # noqa: BLE001 - the escape
                escapes.append((path, value, repr(error)))
    assert escapes == []


def test_examples_cover_every_entry_point():
    kinds = {parser(document) for document in DOCUMENTS.values()}
    assert kinds == {
        Scenario.from_dict, SweepSpec.from_dict,
        MutationScript.from_payload, mutation_from_dict,
    }


# ----------------------------------------------------------------------
# Pinned cases: each was silently accepted or escaped as a TypeError
# ----------------------------------------------------------------------

PINNED = [
    ("scenario_awacs.json", ("files", 0, "name"), value, "files[0].name")
    for value in (5, True, [])
] + [
    ("scenario_awacs_temporal.json",
     ("temporal", "transactions", 1, field), value,
     f"temporal.transactions[1].{field}")
    for field, values in (
        ("name", (5, True)),
        ("deadline_slots", ("x", 1.5, True)),
    )
    for value in values
] + [
    ("scenario_awacs_temporal.json", ("temporal", "modes"), 5,
     "temporal.modes"),
    ("server_awacs_modes.json", ("redundancy", "default"), 1.5,
     "redundancy.default"),
    ("server_awacs_modes.json", ("redundancy", "default"), "x",
     "redundancy.default"),
    ("server_awacs_modes.json",
     ("redundancy", "budgets", "combat", "pos"), True,
     "redundancy.budgets['combat']['pos']"),
    ("server_awacs_modes.json", ("mode",), 5, "mode"),
    ("server_awacs_modes.json", ("mode",), [1], "mode"),
    ("scenario_awacs.json", ("scheduler_policy",), [[1]],
     "scheduler_policy[0]"),
    ("scenario_multichannel.json", ("channels", "partitioner"), [],
     "channels.partitioner"),
    ("sweep_fault_grid.json", ("base", "files", 0, "name"), [],
     "base.files[0].name"),
]


@pytest.mark.parametrize("name, path, value, where", PINNED)
def test_wrong_types_name_their_field(name, path, value, where):
    document = with_value(load_example(name), path, value)
    with pytest.raises(SpecificationError, match=re.escape(where)):
        parser(document)(document)


SCRIPT_PINNED = [({"kind": []}, "kind")] + [
    ({**base, field: value}, field)
    for base, field in (
        ({"kind": "temporal_edit", "name": "air-tracks"}, "update_period"),
        ({"kind": "temporal_edit", "name": "air-tracks"}, "max_age_ms"),
        ({"kind": "add_file", "file": {"name": "wx", "blocks": 2,
                                       "max_age_ms": 100}},
         "update_period"),
    )
    for value in ("x", 1.5, True, [], {})
]


@pytest.mark.parametrize("mutation, field", SCRIPT_PINNED)
def test_malformed_script_fails_before_anything_airs(mutation, field):
    payload = [{"at_slot": 50, "mutation": mutation}]
    where = re.escape(f"mutations[0].mutation.{field}")
    with pytest.raises(SpecificationError, match=where):
        MutationScript.from_payload(payload)


def test_omitted_keys_take_their_defaults():
    scenario = Scenario.from_dict({
        "name": "x",
        "files": [{"name": "a", "blocks": 1, "latency": 4}],
        "mode": "m",
        "redundancy": {"default": 1},
        "scheduler_policy": None,
        "faults": None,
    })
    assert scenario.redundancy == RedundancyPolicy({}, default=1)
    assert scenario.scheduler_policy == "auto"
    assert scenario.faults == FaultSpec()
    assert scenario.files[0].fault_budget == 0


# ----------------------------------------------------------------------
# Round trip: from_dict(to_dict(x)) == x, and to_dict is idempotent
# ----------------------------------------------------------------------

names = st.text("abcdefgh", min_size=1, max_size=4)
seeds = st.integers(0, 2**31)
unit = st.floats(0.0, 1.0)

faults = st.one_of(
    st.just(FaultSpec()),
    st.builds(FaultSpec, kind=st.just("bernoulli"), probability=unit,
              seed=seeds),
    st.builds(FaultSpec, kind=st.just("burst"), p_enter=unit,
              p_exit=unit, seed=seeds),
    st.builds(FaultSpec, kind=st.just("adversarial"),
              lost_slots=st.lists(st.integers(0, 500), max_size=5)),
)
workloads = st.builds(
    WorkloadSpec, requests=st.integers(1, 500), horizon=st.integers(1, 900),
    zipf_skew=st.floats(0.0, 3.0), seed=seeds,
)


@st.composite
def traffics(draw):
    # Only the chosen kinds' parameters serialize, so only those vary.
    arrival = draw(st.sampled_from(("poisson", "deterministic", "bursty")))
    popularity = draw(st.sampled_from(("uniform", "zipf", "hotcold")))
    cache = draw(st.sampled_from((None, "lru", "pix")))
    chosen = {}
    if popularity == "zipf":
        chosen["zipf_skew"] = draw(st.floats(0.0, 3.0))
    if popularity == "hotcold":
        chosen["hot_fraction"] = draw(st.floats(0.01, 1.0))
        chosen["hot_weight"] = draw(unit)
    if arrival == "bursty":
        chosen["bursts"] = draw(st.integers(1, 9))
        chosen["burst_width"] = draw(st.integers(1, 99))
    if cache is not None:
        chosen["cache"] = cache
        chosen["cache_capacity"] = draw(st.integers(1, 9))
    return TrafficSpec(
        clients=draw(st.integers(1, 50)),
        duration=draw(st.integers(1, 900)),
        arrival=arrival,
        popularity=popularity,
        requests_per_client=draw(st.integers(1, 5)),
        think_time=draw(st.integers(0, 20)),
        max_slots=draw(st.one_of(st.none(), st.integers(1, 999))),
        seed=draw(seeds),
        **chosen,
    )


@st.composite
def channels(draw, files=("a", "b")):
    count = draw(st.integers(1, 3))
    explicit = draw(st.one_of(st.none(), st.fixed_dictionaries({
        name: st.lists(st.integers(0, count - 1), min_size=1, unique=True)
        for name in files
    })))
    return ChannelSpec(
        count=count,
        assignment="replicated" if explicit is None else "explicit",
        explicit=explicit,
        partitioner=draw(st.sampled_from(partitioner_names())),
        fault_budgets=draw(st.one_of(
            st.none(),
            st.lists(st.integers(0, 2), min_size=count, max_size=count),
        )),
        tuning_cost=draw(st.integers(0, 5)),
        quorum=draw(st.integers(1, count)),
    )


@st.composite
def redundancy(draw, files):
    budgets = draw(st.dictionaries(
        names, st.dictionaries(st.sampled_from(files), st.integers(0, 2)),
        min_size=1, max_size=3,
    ))
    return RedundancyPolicy(budgets, default=draw(st.integers(0, 2)))


@st.composite
def scenarios(draw):
    files = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    policy = draw(redundancy(files)) if draw(st.booleans()) else None
    return Scenario(
        name=draw(names),
        files=tuple(
            FileSpec(name, draw(st.integers(1, 3)),
                     draw(st.integers(8, 40)),
                     fault_budget=draw(st.integers(0, 2)))
            for name in files
        ),
        block_size=draw(st.integers(1, 128)),
        mode=None if policy is None else draw(st.sampled_from(
            policy.modes()
        )),
        redundancy=policy,
        faults=draw(faults),
        workload=draw(st.one_of(st.none(), workloads)),
        traffic=draw(st.one_of(st.none(), traffics())),
        channels=draw(st.one_of(st.none(), channels(files))),
        scheduler_policy=draw(st.sampled_from(
            ("auto", "exact-first", ("greedy", "exact"))
        )),
        delay_errors=draw(st.one_of(st.none(), st.integers(0, 2))),
    )


@st.composite
def temporal_items(draw):
    kinematic = draw(st.booleans())
    return TemporalItemSpec(
        name=draw(names),
        blocks=draw(st.integers(1, 3)),
        max_age_ms=None if kinematic else draw(st.integers(5_000, 9_000)),
        velocity_kmh=draw(st.floats(1.0, 10.0)) if kinematic else None,
        accuracy_m=draw(st.floats(100.0, 200.0)) if kinematic else None,
        criticality=draw(st.dictionaries(
            st.just("default"), st.integers(0, 2)
        )),
        default_faults=draw(st.integers(0, 2)),
    )


@st.composite
def temporals(draw):
    items = draw(st.lists(
        temporal_items(), min_size=1, max_size=3,
        unique_by=lambda item: item.name,
    ))
    item_names = [item.name for item in items]
    transactions = draw(st.lists(
        st.builds(
            TransactionSpec,
            name=names,
            items=st.lists(st.sampled_from(item_names), min_size=1,
                           unique=True).map(tuple),
            deadline_slots=st.integers(1, 999),
            weight=st.sampled_from((1.0, 0.5, 3)),
        ),
        max_size=2,
        unique_by=lambda txn: txn.name,
    ))
    return TemporalSpec(
        slot_ms=draw(st.sampled_from((1, 10, 2.5))),
        items=tuple(items),
        update_periods={name: draw(st.integers(1, 99))
                        for name in item_names},
        update_overhead_ms=draw(st.sampled_from((0.0, 0, 1.5))),
        transactions=tuple(transactions),
    )


axes = st.builds(
    SweepAxis,
    field=st.sampled_from(("faults.seed", "files.0.blocks", "mode")),
    values=st.lists(st.integers(0, 9), min_size=1, unique=True).map(tuple),
)
mutations = st.one_of(
    st.builds(ModeChange, mode=names),
    st.builds(AddFile, file=st.fixed_dictionaries({"name": names}),
              update_period=st.one_of(st.none(), st.integers(1, 9))),
    st.builds(RemoveFile, name=names),
    st.builds(FaultBudgetBump, name=names, delta=st.integers(-2, 2)),
    st.builds(TemporalEdit, name=names,
              update_period=st.one_of(st.none(), st.integers(1, 9)),
              max_age_ms=st.one_of(st.none(), st.integers(1, 999))),
)
entries = st.builds(
    ScriptEntry, at_slot=st.integers(0, 999), mutation=mutations
)

SPECS = {
    "FaultSpec": faults,
    "WorkloadSpec": workloads,
    "TrafficSpec": traffics(),
    "ChannelSpec": channels(),
    "RedundancyPolicy": redundancy(["a", "b"]),
    "Scenario": scenarios(),
    "TemporalItemSpec": temporal_items(),
    "TransactionSpec": st.builds(
        TransactionSpec, name=names,
        items=st.lists(names, min_size=1, unique=True).map(tuple),
        deadline_slots=st.integers(1, 99),
        weight=st.floats(0.1, 9.0),
    ),
    "TemporalSpec": temporals(),
    "temporal Scenario": temporals().map(
        lambda spec: Scenario(name="t", temporal=spec)
    ),
    "SweepAxis": axes,
    "SweepSpec": st.builds(
        SweepSpec, name=names, base=scenarios(),
        axes=st.lists(axes, max_size=2, unique_by=lambda a: a.field)
        .map(tuple),
    ),
    "mutation": mutations,
    "ScriptEntry": entries,
    "MutationScript": st.lists(entries, max_size=3).map(
        lambda drawn: MutationScript(
            tuple(sorted(drawn, key=lambda entry: entry.at_slot))
        )
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_round_trip(name):
    @settings(max_examples=25, deadline=None)
    @given(SPECS[name])
    def check(spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = type(spec).from_dict(payload)
        assert restored == spec
        assert restored.to_dict() == payload

    check()
