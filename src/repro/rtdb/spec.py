"""The declarative real-time-database specification.

:class:`TemporalSpec` is to the rtdb layer what
:class:`repro.api.FaultSpec` is to the channel and
:class:`repro.traffic.TrafficSpec` is to the client population: one
immutable, JSON-round-trippable object naming the whole temporally
constrained database - which data items are on the air (with their
absolute temporal-consistency constraints, given directly in
milliseconds or derived from object kinematics), how critical each is
per operation mode, how fast the server re-disperses updates, and what
read-transaction mix clients issue.  ``repro.api.Scenario`` embeds one
under its ``"temporal"`` key and *derives its broadcast catalogue from
it*: each item's constraint becomes the file's latency budget in slots
(:func:`repro.rtdb.temporal.latency_budget_slots`), and the active
mode selects each item's AIDA fault budget.

The design-relevant parts are exactly the derived file specifications
and the active mode; **update periods and the transaction mix are
runtime knobs** - two specs differing only in those induce the same
broadcast program, which is what lets a sweep over update rates or
transaction mixes stay a solve-cache hit.

Validation is eager (construction raises
:class:`repro.errors.SpecificationError` on any inconsistent value,
including an item whose constraint cannot carry its blocks in *any*
declared mode) and serialization emits only the parameters the chosen
forms actually use, matching the ``FaultSpec`` idiom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import (
    SpecificationError,
    check_int,
    check_number,
    require_keys,
)
from repro.bdisk.file import FileSpec
from repro.rtdb.items import DataItem
from repro.rtdb.temporal import (
    TemporalConstraint,
    constraint_from_kinematics,
    latency_budget_slots,
)
from repro.rtdb.transactions import ReadTransaction
from repro.rtdb.updates import UpdatingServer


@dataclass(frozen=True)
class TemporalItemSpec:
    """One temporally constrained data item.

    The constraint is given in exactly one of two forms:

    * ``max_age_ms`` - the absolute staleness bound directly;
    * ``velocity_kmh`` + ``accuracy_m`` - object kinematics, from which
      the bound is derived (the paper's Section 1 arithmetic: a 900 km/h
      aircraft needing 100 m accuracy tolerates 400 ms).

    ``criticality`` maps operation modes to AIDA fault budgets ``r``;
    modes not mentioned fall back to ``default_faults``.
    """

    name: str
    blocks: int = 1
    max_age_ms: int | None = None
    velocity_kmh: float | None = None
    accuracy_m: float | None = None
    criticality: dict[str, int] = field(default_factory=dict)
    default_faults: int = 0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecificationError(
                f"temporal item name must be a non-empty string: "
                f"{self.name!r}"
            )
        check_int(
            self.blocks, f"temporal item {self.name!r}: blocks", minimum=1
        )
        kinematic = (
            self.velocity_kmh is not None or self.accuracy_m is not None
        )
        if (self.max_age_ms is None) == (not kinematic):
            raise SpecificationError(
                f"temporal item {self.name!r}: give exactly one of "
                f"max_age_ms or velocity_kmh+accuracy_m"
            )
        if kinematic and (
            self.velocity_kmh is None or self.accuracy_m is None
        ):
            raise SpecificationError(
                f"temporal item {self.name!r}: kinematics need both "
                f"velocity_kmh and accuracy_m"
            )
        if self.max_age_ms is not None:
            check_int(
                self.max_age_ms,
                f"temporal item {self.name!r}: max_age_ms",
                minimum=1,
            )
        else:
            check_number(
                self.velocity_kmh,
                f"temporal item {self.name!r}: velocity_kmh",
            )
            check_number(
                self.accuracy_m,
                f"temporal item {self.name!r}: accuracy_m",
            )
        check_int(
            self.default_faults,
            f"temporal item {self.name!r}: default_faults",
            minimum=0,
        )
        if not isinstance(self.criticality, Mapping):
            raise SpecificationError(
                f"temporal item {self.name!r}: criticality must be an "
                f"object (mode -> fault budget)"
            )
        object.__setattr__(self, "criticality", dict(self.criticality))
        for mode, budget in self.criticality.items():
            check_int(
                budget,
                f"temporal item {self.name!r}: fault budget for mode "
                f"{mode!r}",
                minimum=0,
            )
        # Deriving the constraint surfaces kinematics range errors
        # (non-positive velocity, sub-millisecond bounds) eagerly.
        self.constraint()

    def constraint(self) -> TemporalConstraint:
        """The item's absolute temporal-consistency constraint."""
        if self.max_age_ms is not None:
            return TemporalConstraint(self.max_age_ms)
        return constraint_from_kinematics(
            self.velocity_kmh, self.accuracy_m
        )

    def data_item(self) -> DataItem:
        """The :class:`~repro.rtdb.items.DataItem` this spec declares.

        The payload is synthesized deterministically from the name (the
        :meth:`repro.bdisk.file.FileSpec.payload` recipe), so simulators
        and payload checks reproduce bit-for-bit without carrying bytes
        through JSON.
        """
        seed = self.name.encode("utf-8")
        unit = (seed * (64 // max(1, len(seed)) + 1))[:64]
        return DataItem(
            self.name,
            unit * self.blocks,
            self.constraint(),
            blocks=self.blocks,
            criticality=dict(self.criticality),
            default_faults=self.default_faults,
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict carrying only the constraint form given."""
        payload: dict[str, Any] = {"name": self.name, "blocks": self.blocks}
        if self.max_age_ms is not None:
            payload["max_age_ms"] = self.max_age_ms
        else:
            payload["velocity_kmh"] = self.velocity_kmh
            payload["accuracy_m"] = self.accuracy_m
        if self.criticality:
            payload["criticality"] = dict(self.criticality)
        if self.default_faults:
            payload["default_faults"] = self.default_faults
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TemporalItemSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        require_keys(
            payload,
            {"name", "blocks", "max_age_ms", "velocity_kmh",
             "accuracy_m", "criticality", "default_faults"},
            "temporal item",
        )
        return cls(
            name=payload.get("name", ""),
            blocks=payload.get("blocks", 1),
            max_age_ms=payload.get("max_age_ms"),
            velocity_kmh=payload.get("velocity_kmh"),
            accuracy_m=payload.get("accuracy_m"),
            criticality=payload.get("criticality", {}),
            default_faults=payload.get("default_faults", 0),
        )


@dataclass(frozen=True)
class TransactionSpec:
    """One entry of the client transaction mix.

    ``weight`` is the entry's relative draw probability in the traffic
    simulator's mix (any positive number; weights need not sum to 1).
    """

    name: str
    items: tuple[str, ...]
    deadline_slots: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "items", tuple(self.items))
        except TypeError as error:
            raise SpecificationError(
                f"transaction {self.name!r}: items must be a list: "
                f"{error}"
            ) from error
        # ReadTransaction owns the structural rules (non-empty, unique
        # items, positive deadline); building one validates them.
        self.as_transaction()
        check_number(
            self.weight, f"transaction {self.name!r}: weight"
        )
        if self.weight <= 0:
            raise SpecificationError(
                f"transaction {self.name!r}: weight must be > 0, got "
                f"{self.weight}"
            )

    def as_transaction(self) -> ReadTransaction:
        """The executable :class:`ReadTransaction` this spec declares."""
        return ReadTransaction(self.name, self.items, self.deadline_slots)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict (weight omitted at its default)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "items": list(self.items),
            "deadline_slots": self.deadline_slots,
        }
        if self.weight != 1.0:
            payload["weight"] = self.weight
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TransactionSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        require_keys(
            payload,
            {"name", "items", "deadline_slots", "weight"},
            "transaction spec",
        )
        missing = {"name", "items", "deadline_slots"} - set(payload)
        if missing:
            raise SpecificationError(
                f"transaction spec is missing {sorted(missing)}: "
                f"{dict(payload)!r}"
            )
        return cls(
            name=payload["name"],
            items=payload["items"],
            deadline_slots=payload["deadline_slots"],
            weight=payload.get("weight", 1.0),
        )


@dataclass(frozen=True)
class TemporalSpec:
    """A temporally constrained database over a broadcast channel.

    Attributes
    ----------
    slot_ms:
        Broadcast slot duration in milliseconds (one block transmission
        at the channel rate) - the bridge between the items' wall-clock
        constraints and the designer's slot budgets.  The channel serves
        one block per slot, so temporal scenarios design at bandwidth 1.
    items:
        The data items on the air, hottest-first (traffic popularity
        laws weight by position).
    update_periods:
        Per-item update period in slots: item ``i`` gets a new version
        every ``update_periods[i]`` slots.  Every item needs one.  A
        *runtime* knob - not design-relevant.
    mode:
        The active operation mode (selects per-item fault budgets).
        Design-relevant.
    modes:
        All modes the system can operate in (defaults to just ``mode``).
    update_overhead_ms:
        Sensing/dispersal latency before a fresh value hits the air;
        eats into every item's budget.  Design-relevant.
    transactions:
        Optional weighted read-transaction mix for the traffic
        simulator; empty means single-item reads drawn from the traffic
        popularity law.  A *runtime* knob - not design-relevant.
    """

    slot_ms: float
    items: tuple[TemporalItemSpec, ...]
    update_periods: dict[str, int]
    mode: str = "default"
    modes: tuple[str, ...] = ()
    update_overhead_ms: float = 0.0
    transactions: tuple[TransactionSpec, ...] = ()

    def __post_init__(self) -> None:
        check_number(self.slot_ms, "temporal slot_ms")
        if self.slot_ms <= 0:
            raise SpecificationError(
                f"temporal slot_ms must be > 0: {self.slot_ms}"
            )
        check_number(self.update_overhead_ms, "temporal update_overhead_ms")
        if self.update_overhead_ms < 0:
            raise SpecificationError(
                f"temporal update_overhead_ms must be >= 0: "
                f"{self.update_overhead_ms}"
            )
        try:
            object.__setattr__(self, "items", tuple(self.items))
        except TypeError as error:
            raise SpecificationError(
                f"temporal items must be a list: {error}"
            ) from error
        if not self.items:
            raise SpecificationError(
                "a temporal spec needs at least one item"
            )
        for item in self.items:
            if not isinstance(item, TemporalItemSpec):
                raise SpecificationError(
                    f"temporal items must be TemporalItemSpec instances, "
                    f"got {type(item).__name__}"
                )
        names = [item.name for item in self.items]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpecificationError(
                f"duplicate temporal item names {dupes}"
            )
        if not self.mode or not isinstance(self.mode, str):
            raise SpecificationError(
                f"temporal mode must be a non-empty string: {self.mode!r}"
            )
        try:
            object.__setattr__(self, "modes", tuple(self.modes))
        except TypeError as error:
            raise SpecificationError(
                f"temporal modes must be a list: {error}"
            ) from error
        if not self.modes:
            object.__setattr__(self, "modes", (self.mode,))
        if len(set(self.modes)) != len(self.modes):
            raise SpecificationError(
                f"duplicate temporal modes in {list(self.modes)}"
            )
        if self.mode not in self.modes:
            raise SpecificationError(
                f"active mode {self.mode!r} is not one of the declared "
                f"modes {list(self.modes)}"
            )
        known = set(names)
        for item in self.items:
            unknown = set(item.criticality) - set(self.modes)
            if unknown:
                raise SpecificationError(
                    f"temporal item {item.name!r}: criticality names "
                    f"unknown modes {sorted(unknown)} (declared: "
                    f"{list(self.modes)})"
                )
        if not isinstance(self.update_periods, Mapping):
            raise SpecificationError(
                "temporal update_periods must be an object "
                "(item -> period in slots)"
            )
        object.__setattr__(
            self, "update_periods", dict(self.update_periods)
        )
        missing = known - set(self.update_periods)
        if missing:
            raise SpecificationError(
                f"temporal update_periods is missing items "
                f"{sorted(missing)}"
            )
        unknown = set(self.update_periods) - known
        if unknown:
            raise SpecificationError(
                f"temporal update_periods names unknown items "
                f"{sorted(unknown)}"
            )
        for name, period in self.update_periods.items():
            check_int(
                period,
                f"temporal update period for {name!r}",
                minimum=1,
            )
        try:
            object.__setattr__(
                self, "transactions", tuple(self.transactions)
            )
        except TypeError as error:
            raise SpecificationError(
                f"temporal transactions must be a list: {error}"
            ) from error
        for txn in self.transactions:
            if not isinstance(txn, TransactionSpec):
                raise SpecificationError(
                    f"temporal transactions must be TransactionSpec "
                    f"instances, got {type(txn).__name__}"
                )
            ghost = set(txn.items) - known
            if ghost:
                raise SpecificationError(
                    f"transaction {txn.name!r} reads unknown items "
                    f"{sorted(ghost)}"
                )
        txn_names = [txn.name for txn in self.transactions]
        if len(set(txn_names)) != len(txn_names):
            dupes = sorted(
                {n for n in txn_names if txn_names.count(n) > 1}
            )
            raise SpecificationError(
                f"duplicate transaction names {dupes}"
            )
        # Every declared mode must be able to carry every item: an item
        # whose budget cannot fit its blocks plus that mode's fault
        # budget is a specification error *now*, not a mid-sweep crash.
        for mode in self.modes:
            self.file_specs(mode)

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def data_items(self) -> dict[str, DataItem]:
        """The :class:`DataItem` population, keyed by name."""
        return {item.name: item.data_item() for item in self.items}

    def file_specs(self, mode: str | None = None) -> tuple[FileSpec, ...]:
        """The broadcast catalogue the items induce in a mode.

        These are the *design-relevant* derivation: each item's
        constraint becomes a latency budget in slots
        (``FileSpec.latency`` at bandwidth 1 - one block per slot) and
        the mode selects its fault budget.  Item order is preserved
        (hottest-first for the traffic popularity laws).
        """
        active = self.mode if mode is None else mode
        if active not in self.modes:
            raise SpecificationError(
                f"unknown mode {active!r}; known: {list(self.modes)}"
            )
        return tuple(
            item.data_item().as_file_spec(
                active,
                slot_ms=self.slot_ms,
                update_overhead_ms=self.update_overhead_ms,
            )
            for item in self.items
        )

    def max_age_slots(self) -> dict[str, int]:
        """Per-item freshness bound in slots.

        The same number as the item's design latency budget: a value
        whose age at completion exceeds it violates the constraint.
        """
        return {
            item.name: latency_budget_slots(
                item.constraint(),
                slot_ms=self.slot_ms,
                update_overhead_ms=self.update_overhead_ms,
            )
            for item in self.items
        }

    def server(self) -> UpdatingServer:
        """The update clocks (:class:`UpdatingServer`) of this spec."""
        return UpdatingServer(self.update_periods)

    def describe(self) -> str:
        """A one-line human summary (used by reports and the CLI)."""
        parts = [
            f"{len(self.items)} items",
            f"mode {self.mode}",
            f"slot {self.slot_ms} ms",
        ]
        periods = sorted(self.update_periods.values())
        parts.append(
            f"update periods {periods[0]}..{periods[-1]} slots"
        )
        if self.transactions:
            parts.append(f"{len(self.transactions)}-transaction mix")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict; :meth:`from_dict` round-trips it."""
        payload: dict[str, Any] = {
            "slot_ms": self.slot_ms,
            "items": [item.to_dict() for item in self.items],
            "update_periods": dict(self.update_periods),
            "mode": self.mode,
            "modes": list(self.modes),
        }
        if self.update_overhead_ms:
            payload["update_overhead_ms"] = self.update_overhead_ms
        if self.transactions:
            payload["transactions"] = [
                txn.to_dict() for txn in self.transactions
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TemporalSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        require_keys(
            payload,
            {"slot_ms", "items", "update_periods", "mode", "modes",
             "update_overhead_ms", "transactions"},
            "temporal spec",
        )
        missing = {"slot_ms", "items", "update_periods"} - set(payload)
        if missing:
            raise SpecificationError(
                f"temporal spec is missing {sorted(missing)}"
            )
        items_payload = payload["items"]
        if isinstance(items_payload, (str, bytes, Mapping)) or not hasattr(
            items_payload, "__iter__"
        ):
            raise SpecificationError(
                f"temporal items must be a list of item objects, got "
                f"{type(items_payload).__name__}"
            )
        transactions_payload = payload.get("transactions", ())
        if isinstance(
            transactions_payload, (str, bytes, Mapping)
        ) or not hasattr(transactions_payload, "__iter__"):
            raise SpecificationError(
                f"temporal transactions must be a list of transaction "
                f"objects, got {type(transactions_payload).__name__}"
            )
        return cls(
            slot_ms=payload["slot_ms"],
            items=tuple(
                TemporalItemSpec.from_dict(entry)
                for entry in items_payload
            ),
            update_periods=payload["update_periods"],
            mode=payload.get("mode", "default"),
            modes=tuple(payload.get("modes", ())),
            update_overhead_ms=payload.get("update_overhead_ms", 0.0),
            transactions=tuple(
                TransactionSpec.from_dict(entry)
                for entry in transactions_payload
            ),
        )
