"""Deadline-tagged read transactions over a broadcast program.

The client side of the motivating story: a transaction needs a set of
data items, each fresh per its temporal constraint, and the whole read
set by a deadline.  Items are retrieved sequentially off the air (the
client has one receiver); two freshness regimes are supported:

* **static items** (no ``server``): the server re-disperses each update
  between retrievals, so the version on the air is at most one
  retrieval old - an item is temporally consistent when its retrieval
  *latency* fits inside the staleness budget;
* **versioned items** (an :class:`~repro.rtdb.updates.UpdatingServer`):
  each item is retrieved with :func:`~repro.rtdb.updates.retrieve_versioned`
  - torn reads discard cross-version blocks - and consistency is judged
  by the completed value's *age* (finish slot minus the version's write
  slot) against the constraint.

This is intentionally a read-only model: the paper's asymmetric setting
gives clients negligible upstream bandwidth, so write transactions and
concurrency control stay on the server and are out of scope (the paper
cites them as orthogonal RTDB machinery).

Retrievals ride the occurrence-indexed clients
(:func:`repro.sim.client.retrieve` and
:func:`repro.rtdb.updates.retrieve_versioned`), so a transaction costs
O(occurrences touched), not O(slots waited); the slot-walking executable
spec lives in ``tests/oracles/rtdb_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import SimulationError, SpecificationError
from repro.bdisk.program import BroadcastProgram
from repro.sim.client import RetrievalResult, retrieve
from repro.sim.faults import FaultModel, NoFaults
from repro.rtdb.items import DataItem
from repro.rtdb.temporal import latency_budget_slots
from repro.rtdb.updates import (
    UpdatingServer,
    VersionedRetrieval,
    retrieve_versioned,
)


@dataclass(frozen=True, slots=True)
class ReadTransaction:
    """A read-only transaction: items to fetch and a deadline in slots."""

    name: str
    items: tuple[str, ...]
    deadline_slots: int

    def __init__(
        self, name: str, items: Sequence[str], deadline_slots: int
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "deadline_slots", deadline_slots)
        if not self.items:
            raise SpecificationError(
                f"transaction {name!r} reads no items"
            )
        if len(set(self.items)) != len(self.items):
            raise SpecificationError(
                f"transaction {name!r} lists duplicate items"
            )
        if deadline_slots < 1:
            raise SpecificationError(
                f"transaction {name!r}: deadline must be >= 1 slot"
            )


@dataclass(frozen=True)
class TransactionResult:
    """Outcome of one transaction execution.

    ``committed`` requires all retrievals complete, the deadline met, and
    every item temporally consistent.  ``retrievals`` holds the plain
    per-item outcomes (static regime); ``versioned`` holds the
    per-item :class:`VersionedRetrieval` outcomes (versioned regime) -
    exactly one of the two is populated.
    """

    transaction: ReadTransaction
    start: int
    retrievals: tuple[RetrievalResult, ...]
    finish_slot: int | None
    stale_items: tuple[str, ...]
    versioned: tuple[VersionedRetrieval, ...] = ()

    @property
    def response_time(self) -> int | None:
        if self.finish_slot is None:
            return None
        return self.finish_slot - self.start + 1

    @property
    def met_deadline(self) -> bool:
        return (
            self.response_time is not None
            and self.response_time <= self.transaction.deadline_slots
        )

    @property
    def committed(self) -> bool:
        return self.met_deadline and not self.stale_items

    @property
    def torn_discards(self) -> int:
        """Blocks thrown away to torn reads across the read set."""
        return sum(r.torn_discards for r in self.versioned)

    def __str__(self) -> str:
        status = "COMMIT" if self.committed else "ABORT"
        return (
            f"{self.transaction.name}: {status} "
            f"(response={self.response_time}, "
            f"deadline={self.transaction.deadline_slots}, "
            f"stale={list(self.stale_items)})"
        )


def execute_transaction(
    program: BroadcastProgram,
    transaction: ReadTransaction,
    items: Mapping[str, DataItem],
    *,
    start: int = 0,
    slot_ms: float,
    faults: FaultModel | None = None,
    server: UpdatingServer | None = None,
    update_overhead_ms: float = 0.0,
) -> TransactionResult:
    """Execute a read transaction against the broadcast program.

    Items are fetched in the transaction's declared order, each retrieval
    starting where the previous one finished (single-receiver client).
    Without ``server``, an item is stale when its retrieval latency,
    converted to milliseconds, exceeds its temporal constraint.  With a
    ``server``, items are retrieved version-consistently
    (:func:`~repro.rtdb.updates.retrieve_versioned`) and an item is
    stale when the completed value's age in slots exceeds its
    constraint's slot budget (``update_overhead_ms`` eats into that
    budget exactly as it does at design time).
    """
    fault_model = faults if faults is not None else NoFaults()
    clock = start
    retrievals: list[RetrievalResult] = []
    versioned: list[VersionedRetrieval] = []
    stale: list[str] = []

    for name in transaction.items:
        item = items.get(name)
        if item is None:
            raise SimulationError(
                f"transaction {transaction.name!r} reads unknown item "
                f"{name!r}"
            )
        if server is None:
            result = retrieve(
                program,
                name,
                item.blocks,
                start=clock,
                faults=fault_model,
                need_distinct=True,
            )
            retrievals.append(result)
            completed = result.completed and result.finish_slot is not None
            if completed and not item.constraint.is_fresh(
                result.latency * slot_ms
            ):
                stale.append(name)
            finish = result.finish_slot
        else:
            vresult = retrieve_versioned(
                program,
                server,
                name,
                item.blocks,
                start=clock,
                faults=fault_model,
            )
            versioned.append(vresult)
            completed = (
                vresult.completed and vresult.finish_slot is not None
            )
            if completed and not vresult.is_fresh(
                latency_budget_slots(
                    item.constraint,
                    slot_ms=slot_ms,
                    update_overhead_ms=update_overhead_ms,
                )
            ):
                stale.append(name)
            finish = vresult.finish_slot
        if not completed or finish is None:
            return TransactionResult(
                transaction=transaction,
                start=start,
                retrievals=tuple(retrievals),
                finish_slot=None,
                stale_items=tuple(stale),
                versioned=tuple(versioned),
            )
        clock = finish + 1

    return TransactionResult(
        transaction=transaction,
        start=start,
        retrievals=tuple(retrievals),
        finish_slot=clock - 1,
        stale_items=tuple(stale),
        versioned=tuple(versioned),
    )
