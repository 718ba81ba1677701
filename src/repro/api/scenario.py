"""Declarative scenario specifications for end-to-end experiments.

A :class:`Scenario` captures *everything* one broadcast-disk experiment
needs - the file catalogue (regular or generalized), bandwidth and block
size options, an optional per-mode AIDA redundancy policy, the channel
fault model, a client workload, the scheduler policy, and an optional
worst-case delay sweep - as one immutable, JSON-round-trippable object.
:class:`repro.api.engine.BroadcastEngine` turns a scenario into results.

Scenarios validate eagerly: any inconsistent combination raises
:class:`repro.errors.SpecificationError` at construction time, so a bad
JSON file fails at ``Scenario.from_file`` rather than mid-pipeline.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import (
    SpecificationError,
    check_int,
    check_number,
    require_keys,
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
    slot_numbers,
)

#: Fault-model kinds a :class:`FaultSpec` understands.
FAULT_KINDS = ("none", "bernoulli", "burst", "adversarial")

#: File-to-channel assignment policies a :class:`ChannelSpec` understands.
ASSIGNMENT_POLICIES = ("striped", "replicated", "explicit")


@dataclass(frozen=True)
class FaultSpec:
    """A declarative channel fault model.

    ``kind`` selects the model; only that model's parameters are
    meaningful (and serialized):

    * ``"none"`` - the failure-free channel;
    * ``"bernoulli"`` - i.i.d. per-slot losses with ``probability``;
    * ``"burst"`` - Gilbert-style bursts with ``p_enter``/``p_exit``;
    * ``"adversarial"`` - an explicit ``lost_slots`` set.
    """

    kind: str = "none"
    probability: float = 0.0
    p_enter: float = 0.0
    p_exit: float = 1.0
    lost_slots: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SpecificationError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {FAULT_KINDS})"
            )
        check_number(self.probability, "fault probability")
        check_number(self.p_enter, "fault p_enter")
        check_number(self.p_exit, "fault p_exit")
        check_int(self.seed, "fault seed")
        try:
            object.__setattr__(
                self, "lost_slots", slot_numbers(self.lost_slots)
            )
        except TypeError as error:
            raise SpecificationError(
                f"fault lost_slots must be a list of slots: {error}"
            ) from error
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

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict with only the active model's parameters."""
        if self.kind == "bernoulli":
            return {
                "kind": self.kind,
                "probability": self.probability,
                "seed": self.seed,
            }
        if self.kind == "burst":
            return {
                "kind": self.kind,
                "p_enter": self.p_enter,
                "p_exit": self.p_exit,
                "seed": self.seed,
            }
        if self.kind == "adversarial":
            return {"kind": self.kind, "lost_slots": list(self.lost_slots)}
        return {"kind": self.kind}

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

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        require_keys(
            payload,
            {"kind", "probability", "p_enter", "p_exit", "lost_slots",
             "seed"},
            "fault spec",
        )
        # __post_init__ normalizes lost_slots to a tuple of ints itself,
        # turning non-iterables and non-integer slots into
        # SpecificationError.
        return cls(**payload)


@dataclass(frozen=True)
class ChannelSpec:
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
    explicit:
        Only for ``assignment="explicit"``: file name -> list of channel
        indices carrying it (each file on at least one channel).
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
    """

    count: int = 1
    assignment: str = "striped"
    explicit: Mapping[str, tuple[int, ...]] | None = None
    partitioner: str = "worst-fit"
    fault_budgets: tuple[int, ...] | None = None
    tuning_cost: int = 0
    quorum: int = 1

    def __post_init__(self) -> None:
        check_int(self.count, "channels count", minimum=1)
        if self.assignment not in ASSIGNMENT_POLICIES:
            raise SpecificationError(
                f"unknown channel assignment {self.assignment!r} "
                f"(expected one of {ASSIGNMENT_POLICIES})"
            )
        get_partitioner(self.partitioner)  # raises when unknown
        check_int(self.tuning_cost, "channels tuning_cost", minimum=0)
        check_int(self.quorum, "channels quorum", minimum=1)
        if self.quorum > self.count:
            raise SpecificationError(
                f"channels quorum must be <= count: "
                f"{self.quorum}-of-{self.count}"
            )
        if self.fault_budgets is not None:
            try:
                budgets = tuple(self.fault_budgets)
            except TypeError as error:
                raise SpecificationError(
                    f"channels fault_budgets must be a list of integers: "
                    f"{error}"
                ) from error
            if len(budgets) != self.count:
                raise SpecificationError(
                    f"channels fault_budgets must have one entry per "
                    f"channel: got {len(budgets)} for count {self.count}"
                )
            for c, budget in enumerate(budgets):
                check_int(
                    budget, f"channels fault_budgets[{c}]", minimum=0
                )
            object.__setattr__(self, "fault_budgets", budgets)
        if (self.explicit is None) != (self.assignment != "explicit"):
            raise SpecificationError(
                "channels explicit mapping must be given exactly when "
                f"assignment is 'explicit' (assignment={self.assignment!r})"
            )
        if self.explicit is not None:
            if not isinstance(self.explicit, Mapping):
                raise SpecificationError(
                    f"channels explicit must be an object mapping file "
                    f"names to channel lists, got "
                    f"{type(self.explicit).__name__}"
                )
            normalized: dict[str, tuple[int, ...]] = {}
            for name, ids in self.explicit.items():
                if isinstance(ids, (str, bytes)) or not hasattr(
                    ids, "__iter__"
                ):
                    raise SpecificationError(
                        f"channels explicit[{name!r}] must be a list of "
                        f"channel indices, got {type(ids).__name__}"
                    )
                ids = tuple(ids)
                if not ids:
                    raise SpecificationError(
                        f"channels explicit[{name!r}] must name at least "
                        f"one channel"
                    )
                for c in ids:
                    check_int(
                        c, f"channels explicit[{name!r}] entry", minimum=0
                    )
                    if c >= self.count:
                        raise SpecificationError(
                            f"channels explicit[{name!r}] names channel "
                            f"{c}, but count is {self.count}"
                        )
                if len(set(ids)) != len(ids):
                    raise SpecificationError(
                        f"channels explicit[{name!r}] repeats a channel: "
                        f"{list(ids)}"
                    )
                normalized[name] = tuple(sorted(ids))
            object.__setattr__(self, "explicit", normalized)

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
        payload: dict[str, Any] = {
            "count": self.count,
            "assignment": self.assignment,
            "partitioner": self.partitioner,
            "fault_budgets": (
                None
                if self.fault_budgets is None
                else list(self.fault_budgets)
            ),
        }
        if self.explicit is not None:
            payload["explicit"] = {
                name: list(ids)
                for name, ids in sorted(self.explicit.items())
            }
        return payload

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict; :meth:`from_dict` round-trips it."""
        payload: dict[str, Any] = {
            "count": self.count,
            "assignment": self.assignment,
            "partitioner": self.partitioner,
            "fault_budgets": (
                None
                if self.fault_budgets is None
                else list(self.fault_budgets)
            ),
            "tuning_cost": self.tuning_cost,
            "quorum": self.quorum,
        }
        if self.explicit is not None:
            payload["explicit"] = {
                name: list(ids)
                for name, ids in sorted(self.explicit.items())
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChannelSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        require_keys(
            payload,
            {"count", "assignment", "explicit", "partitioner",
             "fault_budgets", "tuning_cost", "quorum"},
            "channels spec",
        )
        explicit = payload.get("explicit")
        if explicit is not None:
            if not isinstance(explicit, Mapping):
                raise SpecificationError(
                    f"channels explicit must be an object, got "
                    f"{type(explicit).__name__}"
                )
            explicit = {
                name: tuple(ids) if hasattr(ids, "__iter__")
                and not isinstance(ids, (str, bytes)) else ids
                for name, ids in explicit.items()
            }
        kwargs = {k: v for k, v in payload.items() if k != "explicit"}
        return cls(explicit=explicit, **kwargs)


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded client request stream.

    ``requests`` arrivals, uniform over ``horizon`` slots, file choice
    Zipf-weighted by catalogue position when ``zipf_skew > 0`` (hot files
    first).  Deadlines come from each file's latency budget.
    """

    requests: int = 100
    horizon: int = 500
    zipf_skew: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.requests, "workload requests", minimum=1)
        check_int(self.horizon, "workload horizon", minimum=1)
        check_number(self.zipf_skew, "workload zipf_skew")
        check_int(self.seed, "workload seed")
        if self.zipf_skew < 0:
            raise SpecificationError(
                f"workload zipf_skew must be >= 0: {self.zipf_skew}"
            )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict of all four parameters."""
        return {
            "requests": self.requests,
            "horizon": self.horizon,
            "zipf_skew": self.zipf_skew,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        require_keys(
            payload,
            {"requests", "horizon", "zipf_skew", "seed"},
            "workload spec",
        )
        return cls(**payload)


def _file_to_dict(spec: FileSpec | GeneralizedFileSpec) -> dict[str, Any]:
    if isinstance(spec, GeneralizedFileSpec):
        payload: dict[str, Any] = {
            "name": spec.name,
            "blocks": spec.blocks,
            "latency_vector": list(spec.latency_vector),
        }
    else:
        payload = {
            "name": spec.name,
            "blocks": spec.blocks,
            "latency": spec.latency,
            "fault_budget": spec.fault_budget,
        }
    # Explicit payload bytes round-trip as base64 (omitted when absent,
    # since simulators synthesize deterministic payloads from the name).
    if spec.data is not None:
        payload["data"] = base64.b64encode(spec.data).decode("ascii")
    return payload


def _decode_payload_data(encoded: str | None) -> bytes | None:
    if encoded is None:
        return None
    try:
        return base64.b64decode(encoded, validate=True)
    except (ValueError, TypeError) as error:
        raise SpecificationError(
            f"file data must be base64-encoded: {error}"
        ) from error


def _file_from_dict(
    payload: Mapping[str, Any]
) -> FileSpec | GeneralizedFileSpec:
    if not isinstance(payload, Mapping):
        raise SpecificationError(
            f"each file entry must be an object, got "
            f"{type(payload).__name__}: {payload!r}"
        )
    if "latency_vector" in payload:
        allowed, required = {"name", "blocks", "latency_vector", "data"}, {
            "name", "blocks", "latency_vector",
        }
    else:
        allowed, required = {
            "name", "blocks", "latency", "fault_budget", "data",
        }, {"name", "blocks", "latency"}
    what = "generalized file" if "latency_vector" in payload else "file"
    require_keys(payload, allowed, what)
    missing = required - set(payload)
    if missing:
        raise SpecificationError(
            f"{what} entry is missing required keys {sorted(missing)}: "
            f"{dict(payload)!r}"
        )
    data = _decode_payload_data(payload.get("data"))
    if "latency_vector" in payload:
        try:
            vector = tuple(payload["latency_vector"])
        except TypeError as error:
            raise SpecificationError(
                f"generalized file latency_vector must be a list of "
                f"slots: {error}"
            ) from error
        return GeneralizedFileSpec(
            payload["name"],
            payload["blocks"],
            vector,
            data=data,
        )
    return FileSpec(
        payload["name"],
        payload["blocks"],
        payload["latency"],
        fault_budget=payload.get("fault_budget", 0),
        data=data,
    )


@dataclass(frozen=True)
class Scenario:
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
        style) for fault counts ``0..delay_errors``.  Exhaustive - keep
        small.
    """

    name: str
    files: tuple[FileSpec | GeneralizedFileSpec, ...] = ()
    bandwidth: int | None = None
    block_size: int = 64
    mode: str | None = None
    redundancy: RedundancyPolicy | None = None
    faults: FaultSpec = field(default_factory=FaultSpec)
    workload: WorkloadSpec | None = None
    traffic: TrafficSpec | None = None
    temporal: TemporalSpec | None = None
    channels: ChannelSpec | None = None
    scheduler_policy: str | tuple[str, ...] = "auto"
    delay_errors: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecificationError(
                f"scenario name must be a non-empty string: {self.name!r}"
            )
        object.__setattr__(self, "files", tuple(self.files))
        if self.temporal is not None:
            if not isinstance(self.temporal, TemporalSpec):
                raise SpecificationError(
                    f"scenario {self.name!r}: temporal must be a "
                    f"TemporalSpec, got {type(self.temporal).__name__}"
                )
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
        kinds = {type(spec) for spec in self.files}
        if not kinds <= {FileSpec, GeneralizedFileSpec}:
            raise SpecificationError(
                f"scenario {self.name!r}: files must be FileSpec or "
                f"GeneralizedFileSpec instances"
            )
        if len(kinds) > 1:
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
        check_int(
            self.block_size,
            f"scenario {self.name!r}: block_size",
            minimum=1,
        )
        if self.bandwidth is not None:
            if self.generalized:
                raise SpecificationError(
                    f"scenario {self.name!r}: bandwidth cannot be forced "
                    f"for generalized files (latencies are already slots)"
                )
            check_int(
                self.bandwidth,
                f"scenario {self.name!r}: bandwidth",
                minimum=1,
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
        if self.delay_errors is not None:
            check_int(
                self.delay_errors,
                f"scenario {self.name!r}: delay_errors",
                minimum=0,
            )
        self._validate_channels()
        self._validate_policy()

    def _validate_channels(self) -> None:
        spec = self.channels
        if spec is None:
            return
        if not isinstance(spec, ChannelSpec):
            raise SpecificationError(
                f"scenario {self.name!r}: channels must be a "
                f"ChannelSpec, got {type(spec).__name__}"
            )
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

    def _validate_policy(self) -> None:
        policy = self.scheduler_policy
        if isinstance(policy, str):
            if policy not in POLICIES:
                raise SpecificationError(
                    f"scenario {self.name!r}: unknown scheduler policy "
                    f"{policy!r} (expected one of {POLICIES} or a list "
                    f"of scheduler names)"
                )
            return
        try:
            object.__setattr__(self, "scheduler_policy", tuple(policy))
        except TypeError as error:
            raise SpecificationError(
                f"scenario {self.name!r}: scheduler policy must be "
                f"'auto', 'exact-first', or a list of scheduler names "
                f"(got {type(policy).__name__}: {policy!r})"
            ) from error
        if not self.scheduler_policy:
            raise SpecificationError(
                f"scenario {self.name!r}: scheduler policy list must "
                f"not be empty"
            )
        for name in self.scheduler_policy:
            get_scheduler(name)  # raises SpecificationError when unknown

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
        just the same broadcast program.  The distributed sweep keys
        its work units with it (plus the cell key), which is how a
        worker can verify it received the exact cell it was addressed.
        """
        from repro.core.fingerprint import fingerprint

        return fingerprint(["scenario", self.to_dict()])

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict; :meth:`from_dict` round-trips it."""
        policy = self.scheduler_policy
        payload = {
            "name": self.name,
            # A temporal scenario's files are derived, not specified:
            # serializing them would make the payload fail round-trip
            # validation (files and temporal are mutually exclusive).
            "files": (
                []
                if self.temporal is not None
                else [_file_to_dict(spec) for spec in self.files]
            ),
            "bandwidth": self.bandwidth,
            "block_size": self.block_size,
            "mode": self.mode,
            "redundancy": (
                None
                if self.redundancy is None
                else {
                    "default": self.redundancy.default,
                    "budgets": {
                        mode: dict(files)
                        for mode, files in self.redundancy.budgets.items()
                    },
                }
            ),
            "faults": self.faults.to_dict(),
            "workload": (
                None if self.workload is None else self.workload.to_dict()
            ),
            "traffic": (
                None if self.traffic is None else self.traffic.to_dict()
            ),
            "temporal": (
                None if self.temporal is None else self.temporal.to_dict()
            ),
            "scheduler_policy": (
                policy if isinstance(policy, str) else list(policy)
            ),
            "delay_errors": self.delay_errors,
        }
        # Like design_payload: channel-less scenarios serialize exactly
        # as they always did.
        if self.channels is not None:
            payload["channels"] = self.channels.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from :meth:`to_dict` output / parsed JSON.

        Unknown keys raise :class:`SpecificationError` (catching typos in
        hand-written scenario files); every omitted optional key takes
        its dataclass default.
        """
        if not isinstance(payload, Mapping):
            raise SpecificationError(
                f"scenario payload must be a mapping, got "
                f"{type(payload).__name__}"
            )
        require_keys(
            payload,
            {"name", "files", "bandwidth", "block_size", "mode",
             "redundancy", "faults", "workload", "traffic", "temporal",
             "channels", "scheduler_policy", "delay_errors"},
            "scenario",
        )
        files_payload = payload.get("files", ())
        if isinstance(files_payload, (str, bytes, Mapping)) or not hasattr(
            files_payload, "__iter__"
        ):
            raise SpecificationError(
                f"scenario files must be a list of file objects, got "
                f"{type(files_payload).__name__}"
            )
        files = tuple(_file_from_dict(entry) for entry in files_payload)
        redundancy_payload = payload.get("redundancy")
        redundancy = None
        if redundancy_payload is not None:
            require_keys(
                redundancy_payload, {"default", "budgets"}, "redundancy"
            )
            budgets = redundancy_payload.get("budgets", {})
            if not isinstance(budgets, Mapping) or not all(
                isinstance(files_by_mode, Mapping)
                and all(
                    isinstance(budget, int)
                    for budget in files_by_mode.values()
                )
                for files_by_mode in budgets.values()
            ):
                raise SpecificationError(
                    "redundancy budgets must be an object of objects "
                    "(mode -> file -> integer fault budget)"
                )
            redundancy = RedundancyPolicy(
                budgets=budgets,
                default=redundancy_payload.get("default", 0),
            )
        faults_payload = payload.get("faults")
        workload_payload = payload.get("workload")
        traffic_payload = payload.get("traffic")
        temporal_payload = payload.get("temporal")
        channels_payload = payload.get("channels")
        # null means "not specified", by analogy with bandwidth/mode;
        # anything else is validated (and tuple-ified) by Scenario itself.
        policy = payload.get("scheduler_policy")
        if policy is None:
            policy = "auto"
        return cls(
            name=payload.get("name", ""),
            files=files,
            bandwidth=payload.get("bandwidth"),
            block_size=payload.get("block_size", 64),
            mode=payload.get("mode"),
            redundancy=redundancy,
            faults=(
                FaultSpec()
                if faults_payload is None
                else FaultSpec.from_dict(faults_payload)
            ),
            workload=(
                None
                if workload_payload is None
                else WorkloadSpec.from_dict(workload_payload)
            ),
            traffic=(
                None
                if traffic_payload is None
                else TrafficSpec.from_dict(traffic_payload)
            ),
            temporal=(
                None
                if temporal_payload is None
                else TemporalSpec.from_dict(temporal_payload)
            ),
            channels=(
                None
                if channels_payload is None
                else ChannelSpec.from_dict(channels_payload)
            ),
            scheduler_policy=policy,
            delay_errors=payload.get("delay_errors"),
        )

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
