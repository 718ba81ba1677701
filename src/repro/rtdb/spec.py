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

Each spec declares its fields once (:mod:`repro.fields`), and the one
walker that reads those declarations parses, checks and serializes it:
construction raises :class:`repro.errors.SpecificationError` on any
inconsistent value - including an item whose constraint cannot carry
its blocks in *any* declared mode - and serialization emits only the
parameters the chosen forms actually use, matching the ``FaultSpec``
idiom.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpecificationError
from repro.fields import (
    Int,
    ListOf,
    MapOf,
    Number,
    Spec,
    Str,
    check_fields,
    spec_field,
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
class TemporalItemSpec(Spec):
    """One temporally constrained data item.

    The constraint is given in exactly one of two forms (and serializes
    in the form it was given):

    * ``max_age_ms`` - the absolute staleness bound directly;
    * ``velocity_kmh`` + ``accuracy_m`` - object kinematics, from which
      the bound is derived (the paper's Section 1 arithmetic: a 900 km/h
      aircraft needing 100 m accuracy tolerates 400 ms).

    ``criticality`` maps operation modes to AIDA fault budgets ``r``;
    modes not mentioned fall back to ``default_faults``.
    """

    name: str = spec_field(Str(nonempty=True))
    blocks: int = spec_field(Int(1), default=1)
    max_age_ms: int | None = spec_field(Int(1), default=None, emit="set")
    velocity_kmh: float | None = spec_field(
        Number(), default=None, emit="set"
    )
    accuracy_m: float | None = spec_field(
        Number(), default=None, emit="set"
    )
    criticality: dict[str, int] = spec_field(
        MapOf(Int(0)), default_factory=dict, emit="changed"
    )
    default_faults: int = spec_field(Int(0), default=0, emit="changed")

    def __post_init__(self) -> None:
        check_fields(self)
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


@dataclass(frozen=True)
class TransactionSpec(Spec):
    """One entry of the client transaction mix.

    ``weight`` is the entry's relative draw probability in the traffic
    simulator's mix (any positive number; weights need not sum to 1),
    left out of the JSON form at its default.
    """

    name: str = spec_field(Str())
    items: tuple[str, ...] = spec_field(ListOf(Str()))
    deadline_slots: int = spec_field(Int())
    weight: float = spec_field(Number(above=0), default=1.0, emit="changed")

    def __post_init__(self) -> None:
        check_fields(self)
        # ReadTransaction owns the structural rules (non-empty, unique
        # items, positive deadline); building one validates them.
        self.as_transaction()

    def as_transaction(self) -> ReadTransaction:
        """The executable :class:`ReadTransaction` this spec declares."""
        return ReadTransaction(self.name, self.items, self.deadline_slots)


@dataclass(frozen=True)
class TemporalSpec(Spec):
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

    slot_ms: float = spec_field(Number(above=0))
    items: tuple[TemporalItemSpec, ...] = spec_field(
        ListOf(TemporalItemSpec)
    )
    update_periods: dict[str, int] = spec_field(MapOf(Int(1)))
    mode: str = spec_field(Str(nonempty=True), default="default")
    modes: tuple[str, ...] = spec_field(ListOf(Str()), default=())
    update_overhead_ms: float = spec_field(
        Number(0), default=0.0, emit="changed"
    )
    transactions: tuple[TransactionSpec, ...] = spec_field(
        ListOf(TransactionSpec), default=(), emit="changed"
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.items:
            raise SpecificationError(
                "a temporal spec needs at least one item"
            )
        names = [item.name for item in self.items]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpecificationError(
                f"duplicate temporal item names {dupes}"
            )
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
        for txn in self.transactions:
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
