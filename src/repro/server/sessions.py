"""Client sessions that live *through* splices.

The offline traffic simulator's object engine
(:func:`repro.traffic.simulate.simulate_traffic` with
``engine="object"``) is one plain loop per client: it computes a
retrieval's outcome and records its metrics at issue time - sound,
because the program it walks can never change.  An online server's can:
a splice committed after a request was issued rewrites the channel from
the boundary on.  The live sessions here therefore *defer*: issuing
computes a provisional outcome over the current airing timeline and
schedules a completion event at the provisional finish slot, and the
server re-walks every in-flight retrieval whose completion lies at or
beyond a freshly committed splice (pre-boundary content is untouched,
so earlier completions cannot change), cancelling and rescheduling the
completion event when the outcome moved.  Metrics are recorded at
*completion* into the epoch the completion slot falls in - which is
what splits them pre/post-splice.

Deferred completions are why the sessions here run over the
:class:`~repro.traffic.kernel.EventKernel` - the server is its only
driver.  Determinism parity: a live session draws from its RNG in the
same order as the offline client loop (file/transaction draw at issue,
think draw immediately after - retrievals consume no entropy from the
client's stream), so a run with zero mutations is bit-identical to
:func:`repro.traffic.simulate.simulate_traffic` on the same scenario,
with either engine.  The one divergence is harmless: the live session
draws the final request's think time too (the offline loop skips it);
nothing downstream consumes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.rtdb.transactions import ReadTransaction
from repro.server.airing import SplicedRetrieval
from repro.traffic.arrivals import think_slots
from repro.traffic.kernel import EventKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.server import BroadcastServer


@dataclass(frozen=True)
class _PendingRead:
    """One in-flight request: what was asked, when, and the provisional
    outcome the completion event will deliver unless a splice moves it."""

    file: str
    issued: int
    clock: int
    outcome: SplicedRetrieval


@dataclass(frozen=True)
class RespliceOutcome:
    """How a committed splice moved one in-flight retrieval."""

    file: str
    start: int
    budget_slots: int
    old_latency: int | None
    new_latency: int | None
    was_ok: bool
    now_ok: bool

    @property
    def violated(self) -> bool:
        """A retrieval that met its contract and no longer does."""
        return self.was_ok and not self.now_ok


class LiveSession:
    """One open-loop client running against the live server.

    The online counterpart of one client of the offline loop: same
    RNG discipline, same single-receiver chaining, but outcomes are
    provisional until the completion event fires and metrics land in
    the completion epoch.
    """

    __slots__ = (
        "index",
        "_rng",
        "_server",
        "_remaining",
        "_think_mean",
        "_busy_until",
        "_pending",
        "_think",
        "_event_id",
    )

    def __init__(
        self,
        index: int,
        rng: random.Random,
        server: "BroadcastServer",
        *,
        requests: int,
        think_mean: int,
    ) -> None:
        self.index = index
        self._rng = rng
        self._server = server
        self._remaining = requests
        self._think_mean = think_mean
        self._busy_until = -1
        self._pending: _PendingRead | None = None
        self._think = 0
        self._event_id = -1

    def begin(self, kernel: EventKernel, arrival: int) -> None:
        """Schedule the session's first request at its arrival slot."""
        kernel.schedule(arrival, self.issue)

    @property
    def pending_finish(self) -> int:
        """The provisional completion slot of the in-flight request."""
        assert self._pending is not None
        return self._pending.outcome.finish_slot

    def issue(self, kernel: EventKernel) -> None:
        """Issue one request at ``kernel.now``; defer its completion."""
        now = kernel.now
        if now <= self._busy_until:
            raise SimulationError(
                f"client {self.index}: request at slot {now} while the "
                f"receiver is busy until slot {self._busy_until} "
                f"(single-receiver constraint violated)"
            )
        file = self._server.draw_file(self._rng, now)
        outcome = self._server.live_retrieve(file, now)
        self._think = think_slots(self._rng, self._think_mean)
        self._pending = _PendingRead(
            file=file, issued=now, clock=now, outcome=outcome
        )
        self._event_id = kernel.schedule(
            outcome.finish_slot, self._complete
        )
        self._server.register_inflight(self)

    def resplice(self, kernel: EventKernel) -> RespliceOutcome:
        """Re-walk the in-flight request over the spliced timeline.

        Called by the server after committing a splice at or before the
        provisional completion slot.  Cancels the stale completion
        event and schedules the revised one; reports how the outcome
        moved so the server can account violations.
        """
        pending = self._pending
        assert pending is not None
        old = pending.outcome
        new = self._server.live_retrieve(pending.file, pending.clock)
        budget = self._server.deadline_at(pending.issued, pending.file)
        kernel.cancel(self._event_id)
        self._pending = replace(pending, outcome=new)
        self._event_id = kernel.schedule(new.finish_slot, self._complete)
        return RespliceOutcome(
            file=pending.file,
            start=pending.clock,
            budget_slots=budget,
            old_latency=old.latency,
            new_latency=new.latency,
            was_ok=old.latency is not None and old.latency <= budget,
            now_ok=new.latency is not None and new.latency <= budget,
        )

    def _complete(self, kernel: EventKernel) -> None:
        pending = self._pending
        assert pending is not None
        self._server.unregister_inflight(self)
        self._pending = None
        outcome = pending.outcome
        self._busy_until = outcome.finish_slot
        self._server.record_read(
            pending.file, pending.issued, outcome
        )
        self._remaining -= 1
        if self._remaining > 0:
            kernel.schedule(
                outcome.finish_slot + 1 + self._think, self.issue
            )

    def __repr__(self) -> str:
        return (
            f"LiveSession(index={self.index}, "
            f"remaining={self._remaining})"
        )


class LiveTransactionSession:
    """One open-loop client issuing read transactions against the server.

    The online counterpart of one temporal client of the offline loop:
    items are fetched sequentially, but each item is its own deferred
    completion event, so exactly the item actually in flight is
    re-walked when a splice lands.  The transaction draw and the think
    draw happen at issue time, preserving the offline RNG stream
    (retrievals consume no entropy).
    """

    __slots__ = (
        "index",
        "_rng",
        "_server",
        "_remaining",
        "_think_mean",
        "_busy_until",
        "_txn",
        "_txn_issued",
        "_item_index",
        "_pending",
        "_think",
        "_event_id",
    )

    def __init__(
        self,
        index: int,
        rng: random.Random,
        server: "BroadcastServer",
        *,
        requests: int,
        think_mean: int,
    ) -> None:
        self.index = index
        self._rng = rng
        self._server = server
        self._remaining = requests
        self._think_mean = think_mean
        self._busy_until = -1
        self._txn: ReadTransaction | None = None
        self._txn_issued = 0
        self._item_index = 0
        self._pending: _PendingRead | None = None
        self._think = 0
        self._event_id = -1

    def begin(self, kernel: EventKernel, arrival: int) -> None:
        """Schedule the session's first transaction at its arrival."""
        kernel.schedule(arrival, self.issue)

    @property
    def pending_finish(self) -> int:
        """The provisional completion slot of the in-flight item."""
        assert self._pending is not None
        return self._pending.outcome.finish_slot

    def issue(self, kernel: EventKernel) -> None:
        """Draw one transaction at ``kernel.now``; fetch its items."""
        now = kernel.now
        if now <= self._busy_until:
            raise SimulationError(
                f"client {self.index}: transaction at slot {now} while "
                f"the receiver is busy until slot {self._busy_until} "
                f"(single-receiver constraint violated)"
            )
        self._txn = self._server.draw_transaction(self._rng, now)
        self._think = think_slots(self._rng, self._think_mean)
        self._txn_issued = now
        self._item_index = 0
        self._fetch(kernel, now)

    def _fetch(self, kernel: EventKernel, clock: int) -> None:
        assert self._txn is not None
        item = self._txn.items[self._item_index]
        outcome = self._server.live_retrieve_versioned(item, clock)
        self._pending = _PendingRead(
            file=item, issued=self._txn_issued, clock=clock,
            outcome=outcome,
        )
        self._event_id = kernel.schedule(
            outcome.finish_slot, self._item_done
        )
        self._server.register_inflight(self)

    def resplice(self, kernel: EventKernel) -> RespliceOutcome:
        """Re-walk the in-flight *item* over the spliced timeline.

        The versioned contract is freshness: the item must complete
        with an age within the issue-epoch staleness budget.
        """
        pending = self._pending
        assert pending is not None
        old = pending.outcome
        new = self._server.live_retrieve_versioned(
            pending.file, pending.clock
        )
        budget = self._server.max_age_at(pending.issued, pending.file)

        def fresh(outcome: SplicedRetrieval) -> bool:
            return (
                outcome.age_at_completion is not None
                and outcome.age_at_completion <= budget
            )

        kernel.cancel(self._event_id)
        self._pending = replace(pending, outcome=new)
        self._event_id = kernel.schedule(
            new.finish_slot, self._item_done
        )
        return RespliceOutcome(
            file=pending.file,
            start=pending.clock,
            budget_slots=budget,
            old_latency=old.latency,
            new_latency=new.latency,
            was_ok=old.completed and fresh(old),
            now_ok=new.completed and fresh(new),
        )

    def _item_done(self, kernel: EventKernel) -> None:
        pending = self._pending
        assert pending is not None
        assert self._txn is not None
        self._server.unregister_inflight(self)
        self._pending = None
        outcome = pending.outcome
        self._server.record_versioned_read(
            pending.file, pending.issued, outcome
        )
        if outcome.latency is None:
            self._finish_transaction(kernel, outcome.finish_slot, True)
            return
        self._item_index += 1
        if self._item_index < len(self._txn.items):
            # Next item starts the slot after this one finished - the
            # single receiver frees up then (offline clock discipline).
            self._fetch(kernel, outcome.finish_slot + 1)
        else:
            self._finish_transaction(kernel, outcome.finish_slot, False)

    def _finish_transaction(
        self, kernel: EventKernel, finish: int, aborted: bool
    ) -> None:
        assert self._txn is not None
        self._busy_until = finish
        response = None if aborted else finish - self._txn_issued + 1
        self._server.record_transaction(
            self._txn, self._txn_issued, response, finish
        )
        self._txn = None
        self._remaining -= 1
        if self._remaining > 0:
            kernel.schedule(finish + 1 + self._think, self.issue)

    def __repr__(self) -> str:
        return (
            f"LiveTransactionSession(index={self.index}, "
            f"remaining={self._remaining})"
        )
