"""Runtime mutations an online broadcast server accepts.

Each mutation is a small frozen value describing one *delta* against
the currently-airing :class:`~repro.api.Scenario` - a mode change, a
file added to or removed from the catalogue, a fault-budget bump, or a
temporal-spec edit.  ``apply(scenario)`` produces the successor
scenario through :func:`dataclasses.replace`, so every invariant the
``Scenario`` constructor enforces (catalogue shape, mode validity,
per-mode feasibility of temporal items) re-runs eagerly at mutation
time rather than surfacing mid-splice.

Two properties matter to the server:

* mutations that only touch *runtime* knobs (an update period, the
  transaction mix) leave :meth:`~repro.api.Scenario.design_fingerprint`
  unchanged, so the re-solve through the shared
  :class:`~repro.sweep.cache.SolveCache` is a guaranteed warm-start
  hit;
* mutations are JSON values (``to_dict`` / :func:`mutation_from_dict`),
  which is what makes scripted timelines - ``repro server scenario.json
  --script mutations.json`` - and as-run provenance records possible.
  Each mutation declares its fields once (:mod:`repro.fields`); the
  ``kind`` tag picks the class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.errors import SpecificationError
from repro.fields import (
    Int,
    Object,
    Spec,
    Str,
    load,
    parse,
    spec_field,
    table_of,
)
from repro.ida.aida import RedundancyPolicy
from repro.rtdb.spec import TemporalItemSpec, TemporalSpec
from repro.api.scenario import FILE_ENTRY, Scenario


def _replace_temporal(scenario: Scenario, temporal: TemporalSpec) -> Scenario:
    # A temporal scenario's files are derived; replace() re-passes the
    # old derivation, which the constructor would reject against the
    # new spec - clear them so they re-derive.
    return replace(scenario, temporal=temporal, files=())


class _Mutation(Spec):
    """A mutation's JSON form leads with its ``kind`` tag."""

    @classmethod
    def from_dict(cls, payload: Any) -> Any:
        """The mutation a JSON payload names (:func:`mutation_from_dict`)."""
        return mutation_from_dict(payload)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict; :func:`mutation_from_dict` round-trips it."""
        return MUTATION.dump(self)


@dataclass(frozen=True)
class ModeChange(_Mutation):
    """Switch the active operation mode (e.g. surveillance -> combat).

    Temporal scenarios switch the :class:`~repro.rtdb.spec.TemporalSpec`
    mode (selecting per-item fault budgets); regular scenarios with a
    :class:`~repro.ida.aida.RedundancyPolicy` switch the scenario mode.
    The mode must be declared up front - an online server never invents
    operating regimes.
    """

    mode: str = spec_field(Str(nonempty=True))
    kind = "mode_change"

    def apply(self, scenario: Scenario) -> Scenario:
        """The successor scenario operating in :attr:`mode`."""
        if scenario.temporal is not None:
            if self.mode not in scenario.temporal.modes:
                raise SpecificationError(
                    f"mode change to {self.mode!r}: scenario "
                    f"{scenario.name!r} declares modes "
                    f"{list(scenario.temporal.modes)}"
                )
            return _replace_temporal(
                scenario, replace(scenario.temporal, mode=self.mode)
            )
        if scenario.redundancy is None:
            raise SpecificationError(
                f"mode change to {self.mode!r}: scenario "
                f"{scenario.name!r} has neither a temporal spec nor a "
                f"redundancy policy, so modes do not apply"
            )
        if self.mode not in scenario.redundancy.modes():
            raise SpecificationError(
                f"mode change to {self.mode!r}: redundancy policy "
                f"declares modes {list(scenario.redundancy.modes())}"
            )
        return replace(scenario, mode=self.mode)

    def describe(self) -> str:
        """One-line human summary."""
        return f"mode -> {self.mode}"


@dataclass(frozen=True)
class AddFile(_Mutation):
    """Add a file (or temporal item) to the airing catalogue.

    ``file`` is the spec payload: for regular scenarios a scenario
    JSON file entry, parsed by the scenario parser itself (``{name,
    blocks, latency[, fault_budget][, data]}``, or ``latency_vector``
    for generalized catalogues); for temporal scenarios a
    :class:`~repro.rtdb.spec.TemporalItemSpec` payload, plus the
    mandatory ``update_period`` runtime knob.
    """

    file: Mapping[str, Any] = spec_field(Object())
    update_period: int | None = spec_field(Int(), default=None, emit="set")
    kind = "add_file"

    def _name(self) -> str:
        return load(Str(nonempty=True), self.file.get("name"), "file.name")

    def apply(self, scenario: Scenario) -> Scenario:
        """The successor scenario with the file on the air."""
        name = self._name()
        if scenario.temporal is not None:
            if self.update_period is None:
                raise SpecificationError(
                    f"add_file {name!r}: temporal items need an "
                    f"'update_period' (slots)"
                )
            temporal = scenario.temporal
            item = load(table_of(TemporalItemSpec), self.file, "file")
            periods = dict(temporal.update_periods)
            periods[item.name] = self.update_period
            return _replace_temporal(
                scenario,
                replace(
                    temporal,
                    items=temporal.items + (item,),
                    update_periods=periods,
                ),
            )
        if self.update_period is not None:
            raise SpecificationError(
                f"add_file {name!r}: 'update_period' applies to "
                f"temporal scenarios only"
            )
        return replace(
            scenario,
            files=scenario.files + (load(FILE_ENTRY, self.file, "file"),),
        )

    def describe(self) -> str:
        """One-line human summary."""
        return f"add file {self._name()}"


@dataclass(frozen=True)
class RemoveFile(_Mutation):
    """Retire a file (or temporal item) from the airing catalogue."""

    name: str = spec_field(Str(nonempty=True))
    kind = "remove_file"

    def apply(self, scenario: Scenario) -> Scenario:
        """The successor scenario without the file."""
        if scenario.temporal is not None:
            temporal = scenario.temporal
            kept = tuple(
                item for item in temporal.items if item.name != self.name
            )
            if len(kept) == len(temporal.items):
                raise SpecificationError(
                    f"remove_file {self.name!r}: not a temporal item of "
                    f"scenario {scenario.name!r}"
                )
            readers = sorted(
                txn.name
                for txn in temporal.transactions
                if self.name in txn.items
            )
            if readers:
                raise SpecificationError(
                    f"remove_file {self.name!r}: still read by "
                    f"transactions {readers}"
                )
            periods = {
                item: period
                for item, period in temporal.update_periods.items()
                if item != self.name
            }
            return _replace_temporal(
                scenario,
                replace(temporal, items=kept, update_periods=periods),
            )
        kept_files = tuple(
            spec for spec in scenario.files if spec.name != self.name
        )
        if len(kept_files) == len(scenario.files):
            raise SpecificationError(
                f"remove_file {self.name!r}: not in scenario "
                f"{scenario.name!r}'s catalogue"
            )
        return replace(scenario, files=kept_files)

    def describe(self) -> str:
        """One-line human summary."""
        return f"remove file {self.name}"


@dataclass(frozen=True)
class FaultBudgetBump(_Mutation):
    """Change one file's fault-tolerance budget by ``delta`` losses.

    Regular catalogues edit the :class:`~repro.bdisk.builder.FileSpec`
    budget (or, under a redundancy policy, the active mode's entry);
    temporal catalogues edit the item's criticality in the active mode.
    ``delta`` may be negative; the resulting budget must stay >= 0.
    """

    name: str = spec_field(Str(nonempty=True))
    delta: int = spec_field(Int())
    kind = "fault_budget"

    def apply(self, scenario: Scenario) -> Scenario:
        """The successor scenario with the bumped budget."""
        if scenario.temporal is not None:
            temporal = scenario.temporal
            mode = temporal.mode
            items = []
            found = False
            for item in temporal.items:
                if item.name != self.name:
                    items.append(item)
                    continue
                found = True
                current = item.criticality.get(mode, item.default_faults)
                budget = current + self.delta
                if budget < 0:
                    raise SpecificationError(
                        f"fault_budget {self.name!r}: {current} + "
                        f"{self.delta} is negative"
                    )
                items.append(
                    replace(
                        item,
                        criticality={**item.criticality, mode: budget},
                    )
                )
            if not found:
                raise SpecificationError(
                    f"fault_budget {self.name!r}: not a temporal item "
                    f"of scenario {scenario.name!r}"
                )
            return _replace_temporal(
                scenario, replace(temporal, items=tuple(items))
            )
        if scenario.redundancy is not None:
            assert scenario.mode is not None
            if self.name not in {spec.name for spec in scenario.files}:
                raise SpecificationError(
                    f"fault_budget {self.name!r}: not in scenario "
                    f"{scenario.name!r}'s catalogue"
                )
            mode = scenario.mode
            current = scenario.redundancy.fault_budget(mode, self.name)
            budget = current + self.delta
            if budget < 0:
                raise SpecificationError(
                    f"fault_budget {self.name!r}: {current} + "
                    f"{self.delta} is negative"
                )
            budgets = {
                m: dict(files)
                for m, files in scenario.redundancy.budgets.items()
            }
            budgets.setdefault(mode, {})[self.name] = budget
            return replace(
                scenario,
                redundancy=RedundancyPolicy(
                    budgets, default=scenario.redundancy.default
                ),
            )
        if scenario.generalized:
            raise SpecificationError(
                f"fault_budget {self.name!r}: generalized files encode "
                f"fault tolerance in their latency vectors"
            )
        files = []
        found = False
        for spec in scenario.files:
            if spec.name != self.name:
                files.append(spec)
                continue
            found = True
            budget = spec.fault_budget + self.delta
            if budget < 0:
                raise SpecificationError(
                    f"fault_budget {self.name!r}: {spec.fault_budget} + "
                    f"{self.delta} is negative"
                )
            files.append(replace(spec, fault_budget=budget))
        if not found:
            raise SpecificationError(
                f"fault_budget {self.name!r}: not in scenario "
                f"{scenario.name!r}'s catalogue"
            )
        return replace(scenario, files=tuple(files))

    def describe(self) -> str:
        """One-line human summary."""
        return f"fault budget {self.name} {self.delta:+d}"


@dataclass(frozen=True)
class TemporalEdit(_Mutation):
    """Edit one temporal item's update period and/or freshness bound.

    ``update_period`` is a *runtime* knob - the design fingerprint is
    unchanged, so the re-solve is a guaranteed solve-cache hit.
    ``max_age_ms`` tightens or relaxes the item's temporal constraint -
    design-relevant, so it re-solves (warm-started when the induced
    instance was seen before).
    """

    name: str = spec_field(Str(nonempty=True))
    update_period: int | None = spec_field(Int(), default=None, emit="set")
    max_age_ms: int | None = spec_field(Int(), default=None, emit="set")
    kind = "temporal_edit"

    def apply(self, scenario: Scenario) -> Scenario:
        """The successor scenario with the edited item."""
        if scenario.temporal is None:
            raise SpecificationError(
                f"temporal_edit {self.name!r}: scenario "
                f"{scenario.name!r} has no temporal spec"
            )
        if self.update_period is None and self.max_age_ms is None:
            raise SpecificationError(
                f"temporal_edit {self.name!r}: give 'update_period', "
                f"'max_age_ms', or both"
            )
        temporal = scenario.temporal
        if self.name not in {item.name for item in temporal.items}:
            raise SpecificationError(
                f"temporal_edit {self.name!r}: not a temporal item of "
                f"scenario {scenario.name!r}"
            )
        if self.update_period is not None:
            periods = dict(temporal.update_periods)
            periods[self.name] = self.update_period
            temporal = replace(temporal, update_periods=periods)
        if self.max_age_ms is not None:
            items = []
            for item in temporal.items:
                if item.name != self.name:
                    items.append(item)
                    continue
                if item.max_age_ms is None:
                    raise SpecificationError(
                        f"temporal_edit {self.name!r}: item derives its "
                        f"bound from velocity/accuracy; edit those "
                        f"fields via remove + add instead"
                    )
                items.append(replace(item, max_age_ms=self.max_age_ms))
            temporal = replace(temporal, items=tuple(items))
        return _replace_temporal(scenario, temporal)

    def describe(self) -> str:
        """One-line human summary."""
        parts = []
        if self.update_period is not None:
            parts.append(f"period={self.update_period}")
        if self.max_age_ms is not None:
            parts.append(f"max_age={self.max_age_ms}ms")
        return f"temporal edit {self.name} ({', '.join(parts)})"


#: Union of every mutation kind the server accepts.
Mutation = ModeChange | AddFile | RemoveFile | FaultBudgetBump | TemporalEdit

#: JSON ``kind`` tag -> mutation class, the scripted-timeline dispatch.
MUTATION_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (ModeChange, AddFile, RemoveFile, FaultBudgetBump,
                TemporalEdit)
}


class _Tagged:
    """A mutation: its ``kind`` tag picks the class, and the other keys
    are that class's fields."""

    objects = Object()
    kinds = Str(*MUTATION_KINDS)

    def load(self, value: Any) -> Mutation:
        if isinstance(value, _Mutation):
            return value
        payload = self.objects.load(value)
        kind = load(self.kinds, payload.pop("kind", None), "kind")
        return table_of(MUTATION_KINDS[kind]).load(payload)

    def dump(self, mutation: Mutation) -> dict[str, Any]:
        fields = table_of(type(mutation)).dump(mutation)
        return {"kind": mutation.kind, **fields}


#: The mutation shape: script entries and :func:`mutation_from_dict`.
MUTATION = _Tagged()


def mutation_from_dict(payload: Any) -> Mutation:
    """Build a mutation from its JSON payload (dispatch on ``kind``)."""
    return parse(MUTATION, payload, "mutation")
