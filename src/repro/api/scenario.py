"""Declarative scenario specifications for end-to-end experiments.

A :class:`Scenario` captures *everything* one broadcast-disk experiment
needs - the file catalogue (regular or generalized), bandwidth and block
size options, an optional per-mode AIDA redundancy policy, the channel
fault model, a client workload, the scheduler policy, and an optional
worst-case delay sweep - as one immutable, JSON-round-trippable object.
:class:`repro.api.engine.BroadcastEngine` turns a scenario into results.

Each spec here declares its fields once (:mod:`repro.fields`): their
JSON shapes, bounds and emit rules.  The one walker that reads those
declarations parses, checks and serializes every spec, so a bad JSON
file fails at ``Scenario.from_file`` - not mid-pipeline - with a
:class:`repro.errors.SpecificationError` naming the field path
(``files[2].blocks must be an integer, got str: 'x'``).  Each
``__post_init__`` writes out only the rules that span fields.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import SpecificationError
from repro.fields import (
    Int,
    ListOf,
    MapOf,
    Number,
    Spec,
    Str,
    check_fields,
    record,
    reject,
    spec_field,
    when,
)
from repro.core.partition import get_partitioner
from repro.core.registry import POLICIES, get_scheduler
from repro.ida.aida import RedundancyPolicy
from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.rtdb.spec import TemporalSpec
from repro.traffic.spec import TrafficSpec
from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    FaultModel,
    NoFaults,
)

#: Fault-model kinds a :class:`FaultSpec` understands.
FAULT_KINDS = ("none", "bernoulli", "burst", "adversarial")

#: File-to-channel assignment policies a :class:`ChannelSpec` understands.
ASSIGNMENT_POLICIES = ("striped", "replicated", "explicit")


@dataclass(frozen=True)
class FaultSpec(Spec):
    """A declarative channel fault model.

    ``kind`` selects the model; only that model's parameters are
    meaningful (and serialized):

    * ``"none"`` - the failure-free channel;
    * ``"bernoulli"`` - i.i.d. per-slot losses with ``probability``;
    * ``"burst"`` - Gilbert-style bursts with ``p_enter``/``p_exit``;
    * ``"adversarial"`` - an explicit ``lost_slots`` set.
    """

    kind: str = spec_field(Str(*FAULT_KINDS), default="none")
    probability: float = spec_field(
        Number(), default=0.0, emit=when("kind", "bernoulli")
    )
    p_enter: float = spec_field(
        Number(), default=0.0, emit=when("kind", "burst")
    )
    p_exit: float = spec_field(
        Number(), default=1.0, emit=when("kind", "burst")
    )
    lost_slots: tuple[int, ...] = spec_field(
        ListOf(Int()), default=(), emit=when("kind", "adversarial")
    )
    seed: int = spec_field(
        Int(), default=0, emit=when("kind", "bernoulli", "burst")
    )

    def __post_init__(self) -> None:
        check_fields(self)
        # Parameter validation is the models' own; building one surfaces
        # range errors (probabilities, negative slots) eagerly.
        self.build()

    def build(self) -> FaultModel:
        """A fresh fault-model instance (burst models carry state)."""
        if self.kind == "none":
            return NoFaults()
        if self.kind == "bernoulli":
            return BernoulliFaults(self.probability, seed=self.seed)
        if self.kind == "burst":
            return BurstFaults(self.p_enter, self.p_exit, seed=self.seed)
        return AdversarialFaults(self.lost_slots)

    def for_channel(self, index: int) -> "FaultSpec":
        """The fault spec channel ``index`` of a multi-channel set draws.

        Stochastic kinds decorrelate across channels by offsetting the
        seed with the channel index - channel 0 keeps the scenario's
        exact spec, so a one-channel set reproduces the single-channel
        fault stream bit-for-bit.  Deterministic kinds (``none``,
        ``adversarial``) are shared: an adversary's slot list names air
        time, which all channels experience simultaneously.
        """
        if index == 0 or self.kind in ("none", "adversarial"):
            return self
        return FaultSpec(
            kind=self.kind,
            probability=self.probability,
            p_enter=self.p_enter,
            p_exit=self.p_exit,
            lost_slots=self.lost_slots,
            seed=self.seed + index,
        )


@dataclass(frozen=True)
class ChannelSpec(Spec):
    """A set of ``count`` parallel broadcast channels.

    Generalizes the paper's single channel: hot data can be striped over
    several channels (cutting per-channel cycle length, hence latency),
    or replicated across them so clients assemble ``quorum``-of-``k``
    version-consistent reads that survive whole-channel faults.

    Attributes
    ----------
    count:
        Number of parallel channels ``k`` (>= 1).
    assignment:
        File-to-channel policy: ``"striped"`` partitions the catalogue
        with ``partitioner``; ``"replicated"`` places every file on
        every channel; ``"explicit"`` takes the mapping in ``explicit``.
    partitioner:
        Registered partitioner name (see :mod:`repro.core.partition`)
        used by ``"striped"`` assignment.
    fault_budgets:
        Optional per-channel extra fault budget (length ``count``):
        channel ``c`` adds ``fault_budgets[c]`` redundant blocks to every
        regular file it carries, following the per-channel
        fault-withstanding bounds.  ``None`` means no extra budget.
    tuning_cost:
        Slots a client pays to re-tune its receiver to a different
        channel.  A runtime knob: it shapes retrieval latency, not the
        per-channel programs, so sweeps over it reuse cached designs.
    quorum:
        Copies ``r`` a versioned read must assemble with one consistent
        version (``1 <= r <= count``).  Also a runtime knob.
    explicit:
        Only for ``assignment="explicit"``: file name -> list of channel
        indices carrying it (each file on at least one channel).
    """

    count: int = spec_field(Int(1), default=1)
    assignment: str = spec_field(
        Str(*ASSIGNMENT_POLICIES), default="striped"
    )
    partitioner: str = spec_field(Str(), default="worst-fit")
    fault_budgets: tuple[int, ...] | None = spec_field(
        ListOf(Int(0)), default=None
    )
    tuning_cost: int = spec_field(Int(0), default=0)
    quorum: int = spec_field(Int(1), default=1)
    explicit: Mapping[str, tuple[int, ...]] | None = spec_field(
        MapOf(ListOf(Int(0))), default=None, emit="set"
    )

    def __post_init__(self) -> None:
        check_fields(self)
        get_partitioner(self.partitioner)  # raises when unknown
        if self.quorum > self.count:
            raise SpecificationError(
                f"channels quorum must be <= count: "
                f"{self.quorum}-of-{self.count}"
            )
        if (
            self.fault_budgets is not None
            and len(self.fault_budgets) != self.count
        ):
            raise SpecificationError(
                f"channels fault_budgets must have one entry per "
                f"channel: got {len(self.fault_budgets)} for count "
                f"{self.count}"
            )
        if (self.explicit is None) != (self.assignment != "explicit"):
            raise SpecificationError(
                "channels explicit mapping must be given exactly when "
                f"assignment is 'explicit' (assignment={self.assignment!r})"
            )
        if self.explicit is None:
            return
        for name, ids in self.explicit.items():
            if not ids:
                raise SpecificationError(
                    f"channels explicit[{name!r}] must name at least "
                    f"one channel"
                )
            if max(ids) >= self.count:
                raise SpecificationError(
                    f"channels explicit[{name!r}] names channel "
                    f"{max(ids)}, but count is {self.count}"
                )
            if len(set(ids)) != len(ids):
                raise SpecificationError(
                    f"channels explicit[{name!r}] repeats a channel: "
                    f"{list(ids)}"
                )
        object.__setattr__(
            self,
            "explicit",
            {
                name: tuple(sorted(ids))
                for name, ids in sorted(self.explicit.items())
            },
        )

    def budget_for(self, channel: int) -> int:
        """The extra fault budget channel ``channel`` imposes."""
        if self.fault_budgets is None:
            return 0
        return self.fault_budgets[channel]

    def design_payload(self) -> dict[str, Any]:
        """The design-relevant subset, canonically.

        ``tuning_cost`` and ``quorum`` shape client behaviour *on* the
        aired programs, not the programs themselves, so they are
        excluded: sweeps over them hit the solve cache.
        """
        payload = self.to_dict()
        del payload["tuning_cost"], payload["quorum"]
        return payload


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """A seeded client request stream.

    ``requests`` arrivals, uniform over ``horizon`` slots, file choice
    Zipf-weighted by catalogue position when ``zipf_skew > 0`` (hot files
    first).  Deadlines come from each file's latency budget.
    """

    requests: int = spec_field(Int(1), default=100)
    horizon: int = spec_field(Int(1), default=500)
    zipf_skew: float = spec_field(Number(0), default=0.0)
    seed: int = spec_field(Int(), default=0)


class _Base64:
    """File payload bytes, carried in JSON as base64."""

    def load(self, value: Any) -> bytes:
        try:
            return base64.b64decode(value, validate=True)
        except (ValueError, TypeError) as error:
            reject(f"must be base64-encoded: {error}")

    def dump(self, value: bytes) -> str:
        return base64.b64encode(value).decode("ascii")


#: A scenario file entry; ``data`` is omitted when absent, since
#: simulators synthesize deterministic payloads from the name.
_DATA = spec_field(_Base64(), default=None, emit="set")
_REGULAR_FILE = record(
    FileSpec,
    name=spec_field(Str()),
    blocks=spec_field(Int()),
    latency=spec_field(Int()),
    fault_budget=spec_field(Int(), default=0),
    data=_DATA,
)
_GENERALIZED_FILE = record(
    GeneralizedFileSpec,
    name=spec_field(Str()),
    blocks=spec_field(Int()),
    latency_vector=spec_field(ListOf(Int())),
    data=_DATA,
)


class _File:
    """A file entry: generalized when it carries a ``latency_vector``."""

    nested = True

    def load(self, value: Any) -> FileSpec | GeneralizedFileSpec:
        if isinstance(value, (FileSpec, GeneralizedFileSpec)):
            return value
        if isinstance(value, (dict, Mapping)) and "latency_vector" in value:
            return _GENERALIZED_FILE.load(value)
        return _REGULAR_FILE.load(value)

    def dump(self, spec: FileSpec | GeneralizedFileSpec) -> dict[str, Any]:
        if isinstance(spec, GeneralizedFileSpec):
            return _GENERALIZED_FILE.dump(spec)
        return _REGULAR_FILE.dump(spec)


FILE_ENTRY = _File()


class _Policy:
    """``"auto"``, ``"exact-first"``, or a list of scheduler names."""

    names = Str(*POLICIES)
    schedulers = ListOf(Str())

    def load(self, value: Any) -> str | tuple[str, ...]:
        if isinstance(value, str):
            return self.names.load(value)
        if isinstance(value, (list, tuple)):
            return self.schedulers.load(value)
        reject(
            f"must be one of {list(POLICIES)} or a list of scheduler "
            f"names, got {type(value).__name__}: {value!r}"
        )

    def dump(self, value: str | tuple[str, ...]) -> str | list[str]:
        return value if isinstance(value, str) else list(value)


@dataclass(frozen=True)
class Scenario(Spec):
    """One declarative end-to-end broadcast-disk experiment.

    Attributes
    ----------
    name:
        Scenario identity (used in summaries and batch sweeps).
    files:
        The catalogue - all :class:`FileSpec` (regular model, Section
        3.2) or all :class:`GeneralizedFileSpec` (latency vectors,
        Section 4); mixing the two models is rejected.
    bandwidth:
        Optional forced channel bandwidth in blocks/second (regular model
        only; default: the Equation 1/2 bound).
    block_size:
        Payload block size in bytes for simulation payloads.
    mode:
        Operation mode selecting budgets from ``redundancy``.
    redundancy:
        Optional per-mode AIDA :class:`RedundancyPolicy`; when present
        (with ``mode``), it *overrides* each regular file's
        ``fault_budget``.
    faults:
        Channel fault model for the simulation phase.
    workload:
        Optional client workload; ``None`` skips the simulation phase.
    traffic:
        Optional open-loop client population
        (:class:`repro.traffic.TrafficSpec`); ``None`` skips the
        traffic phase.  Where ``workload`` replays a fixed request
        list, ``traffic`` simulates sustained load: arrival processes,
        session think times, client caches, and streaming metrics.
    temporal:
        Optional real-time database layer
        (:class:`repro.rtdb.TemporalSpec`).  When present the scenario
        *derives its catalogue from the items*: ``files`` must be
        empty, each item's temporal constraint becomes the file's
        latency budget in slots, the active mode selects fault budgets,
        and the channel designs at bandwidth 1 (one block per slot of
        ``slot_ms`` milliseconds).  Traffic populations then run the
        version-consistent transaction clients and report staleness /
        consistency metrics.
    scheduler_policy:
        ``"auto"``, ``"exact-first"``, or an explicit tuple of registered
        scheduler names (see :mod:`repro.core.registry`).
    delay_errors:
        When set, compute the exact worst-case delay table (Figure 7
        style) for fault counts ``0..delay_errors``.  Closed forms on
        each file's block rotation: linear in its services per cycle,
        at any fault count.
    """

    name: str = spec_field(Str(nonempty=True))
    files: tuple[FileSpec | GeneralizedFileSpec, ...] = spec_field(
        ListOf(FILE_ENTRY),
        default=(),
        # A temporal scenario's files are derived, not specified:
        # serializing them would make the payload fail round-trip
        # validation (files and temporal are mutually exclusive).
        derived=lambda scenario: scenario.temporal is not None,
    )
    bandwidth: int | None = spec_field(Int(1), default=None)
    block_size: int = spec_field(Int(1), default=64)
    mode: str | None = spec_field(Str(), default=None)
    redundancy: RedundancyPolicy | None = spec_field(
        RedundancyPolicy, default=None
    )
    faults: FaultSpec = spec_field(
        FaultSpec, default_factory=FaultSpec, nullable=True
    )
    workload: WorkloadSpec | None = spec_field(WorkloadSpec, default=None)
    traffic: TrafficSpec | None = spec_field(TrafficSpec, default=None)
    temporal: TemporalSpec | None = spec_field(TemporalSpec, default=None)
    scheduler_policy: str | tuple[str, ...] = spec_field(
        _Policy(), default="auto", nullable=True
    )
    delay_errors: int | None = spec_field(Int(0), default=None)
    # Channel-less scenarios serialize exactly as they always did: the
    # key only appears when set.
    channels: ChannelSpec | None = spec_field(
        ChannelSpec, default=None, emit="set"
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if self.temporal is not None:
            # The catalogue is derived, not specified.  Files equal to
            # the derivation are tolerated so dataclasses.replace() -
            # which re-passes every field - keeps working on temporal
            # scenarios.
            derived = self.temporal.file_specs()
            if self.files and self.files != derived:
                raise SpecificationError(
                    f"scenario {self.name!r}: a temporal scenario "
                    f"derives its catalogue from the items - leave "
                    f"files empty"
                )
            if self.bandwidth is not None:
                raise SpecificationError(
                    f"scenario {self.name!r}: temporal scenarios design "
                    f"at bandwidth 1 (one block per slot_ms); bandwidth "
                    f"cannot be forced"
                )
            if self.mode is not None or self.redundancy is not None:
                raise SpecificationError(
                    f"scenario {self.name!r}: temporal items carry "
                    f"their own per-mode criticality; mode/redundancy "
                    f"do not apply"
                )
            # The derived catalogue: item constraints as slot budgets,
            # the active mode's fault budgets applied.
            object.__setattr__(self, "files", derived)
        if not self.files:
            raise SpecificationError(
                f"scenario {self.name!r}: at least one file is required"
            )
        if len({type(spec) for spec in self.files}) > 1:
            raise SpecificationError(
                f"scenario {self.name!r}: cannot mix regular and "
                f"generalized files in one scenario"
            )
        names = [spec.name for spec in self.files]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpecificationError(
                f"scenario {self.name!r}: duplicate file names {dupes}"
            )
        if self.bandwidth is not None and self.generalized:
            raise SpecificationError(
                f"scenario {self.name!r}: bandwidth cannot be forced "
                f"for generalized files (latencies are already slots)"
            )
        if (self.redundancy is None) != (self.mode is None):
            raise SpecificationError(
                f"scenario {self.name!r}: mode and redundancy must be "
                f"given together"
            )
        if self.redundancy is not None and self.generalized:
            raise SpecificationError(
                f"scenario {self.name!r}: a redundancy policy applies to "
                f"regular files only (generalized files encode fault "
                f"tolerance in their latency vectors)"
            )
        self._validate_channels()
        if not self.scheduler_policy:
            raise SpecificationError(
                f"scenario {self.name!r}: scheduler policy list must "
                f"not be empty"
            )
        if not isinstance(self.scheduler_policy, str):
            for name in self.scheduler_policy:
                get_scheduler(name)  # raises SpecificationError when unknown

    def _validate_channels(self) -> None:
        spec = self.channels
        if spec is None:
            return
        names = {file.name for file in self.files}
        if spec.assignment == "striped" and spec.count > len(self.files):
            raise SpecificationError(
                f"scenario {self.name!r}: cannot stripe "
                f"{len(self.files)} file(s) over {spec.count} channels "
                f"(use 'replicated' assignment, or fewer channels)"
            )
        if spec.explicit is not None:
            unknown = sorted(set(spec.explicit) - names)
            if unknown:
                raise SpecificationError(
                    f"scenario {self.name!r}: channels explicit names "
                    f"unknown files {unknown}"
                )
            missing = sorted(names - set(spec.explicit))
            if missing:
                raise SpecificationError(
                    f"scenario {self.name!r}: channels explicit must "
                    f"assign every file (missing {missing})"
                )
        if (
            self.generalized
            and spec.fault_budgets is not None
            and any(spec.fault_budgets)
        ):
            raise SpecificationError(
                f"scenario {self.name!r}: per-channel fault_budgets "
                f"apply to regular files only (generalized files encode "
                f"fault tolerance in their latency vectors)"
            )
        if spec.quorum > 1:
            replication = {
                name: len(ids) for name, ids in
                self.channel_assignment().items()
            }
            thin = sorted(
                name for name, copies in replication.items()
                if copies < spec.quorum and self.temporal is not None
            )
            if thin:
                raise SpecificationError(
                    f"scenario {self.name!r}: quorum "
                    f"{spec.quorum}-of-{spec.count} needs every temporal "
                    f"item on >= {spec.quorum} channels; too thin: {thin}"
                )

    def channel_assignment(self) -> dict[str, tuple[int, ...]]:
        """File name -> sorted channel indices carrying it.

        Resolves the assignment policy against this catalogue (explicit
        mapping, full replication, or the registered partitioner's
        stripe).  Empty when the scenario has no ``channels``.
        """
        spec = self.channels
        if spec is None:
            return {}
        from repro.bdisk.multichannel import resolve_assignment

        # The effective catalogue: redundancy budgets shift densities,
        # and the stripe must match what the designer will partition.
        return resolve_assignment(self.effective_files, spec)

    @property
    def generalized(self) -> bool:
        """Whether the catalogue uses the generalized (Section 4) model."""
        return isinstance(self.files[0], GeneralizedFileSpec)

    @property
    def design_bandwidth(self) -> int | None:
        """The bandwidth the designer receives (regular model).

        Temporal scenarios are pinned to 1 - their derived budgets are
        already slot counts, one block per ``slot_ms`` on the air.  The
        single source of truth shared by :meth:`design_payload` (the
        solve-cache fingerprint) and
        :meth:`repro.api.BroadcastEngine.design` (the program actually
        built): the two must never disagree, or cached designs would
        stop describing the programs they stand in for.
        """
        return 1 if self.temporal is not None else self.bandwidth

    @property
    def effective_files(self) -> tuple[FileSpec | GeneralizedFileSpec, ...]:
        """The catalogue with the redundancy policy's budgets applied."""
        if self.redundancy is None or self.mode is None:
            return self.files
        return tuple(
            FileSpec(
                spec.name,
                spec.blocks,
                spec.latency,
                fault_budget=self.redundancy.fault_budget(
                    self.mode, spec.name
                ),
                data=spec.data,
            )
            for spec in self.files
        )

    def design_payload(self) -> dict[str, Any]:
        """The design-relevant subset of the scenario, canonically.

        Exactly the inputs :meth:`repro.api.BroadcastEngine.design`
        consumes: the effective catalogue (redundancy budgets applied;
        for temporal scenarios, the item-derived specs under the active
        mode), the forced bandwidth (1 for temporal scenarios), and the
        scheduler policy.  Fault models, workloads, traffic populations,
        block sizes, payload bytes, and delay sweeps all act
        *downstream* of the designed program - and so do a temporal
        spec's update periods and transaction mix, which are runtime
        knobs - so scenarios differing only in those share a payload,
        which is what lets a sweep's solve-cache reuse one schedule
        across a whole fault/traffic/update-rate grid.
        """
        if self.generalized:
            files = [
                [spec.name, spec.blocks, list(spec.latency_vector)]
                for spec in self.files
            ]
            model = "generalized"
        else:
            files = [
                [spec.name, spec.blocks, spec.latency, spec.fault_budget]
                for spec in self.effective_files
            ]
            model = "regular"
        policy = self.scheduler_policy
        payload = {
            "model": model,
            "files": files,
            "bandwidth": self.design_bandwidth,
            "policy": policy if isinstance(policy, str) else list(policy),
        }
        # Channel-less scenarios keep their historical payload (and
        # fingerprint) byte-for-byte: the key only appears when set.
        if self.channels is not None:
            payload["channels"] = self.channels.design_payload()
        return payload

    def design_fingerprint(self) -> str:
        """Content fingerprint of :meth:`design_payload`.

        Two scenarios with equal fingerprints design the identical
        broadcast program (same pinwheel instance, same scheduler
        routing), so a cached :class:`~repro.bdisk.builder.ProgramDesign`
        solved for one is valid for the other.
        """
        from repro.core.fingerprint import fingerprint

        return fingerprint(["scenario-design", self.design_payload()])

    def scenario_fingerprint(self) -> str:
        """Content fingerprint of the *whole* scenario (:meth:`to_dict`).

        Unlike :meth:`design_fingerprint`, this covers runtime knobs
        too - faults, traffic, simulation seeds - so two scenarios with
        equal fingerprints produce identical results end to end, not
        just the same broadcast program.
        """
        from repro.core.fingerprint import fingerprint

        return fingerprint(["scenario", self.to_dict()])

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecificationError(
                f"invalid scenario JSON: {error}"
            ) from error
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        """Load a scenario from a JSON file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise SpecificationError(
                f"cannot read scenario file {path}: {error}"
            ) from error
        return cls.from_json(text)

    def save(self, path: str | Path) -> None:
        """Write the scenario to a JSON file."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")
