"""The discrete-event simulation kernel.

The online server (:mod:`repro.server`) runs its live client sessions
on this kernel: a splice can move an in-flight retrieval's completion,
so completions are events that can be cancelled and rescheduled.  (The
offline traffic engines need no kernel - clients are independent.)

Nothing forces the server to visit every slot: all state changes happen
at *events* (a session issuing a request, a retrieval finishing, a
think-time expiring), and retrieval outcomes are computed analytically
by jumping service-to-service along the program's occurrence index.
The kernel therefore reduces to the classic event-heap loop: a priority
queue of ``(slot, action)`` pairs keyed on absolute broadcast slots,
popped in slot order.

Determinism: events at the same slot run in scheduling order (a
monotonic sequence number breaks heap ties), so a run is a pure function
of its seeds regardless of how sessions interleave.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.errors import SimulationError

#: An event action; receives the kernel so it can schedule follow-ups.
Action = Callable[["EventKernel"], None]


class EventKernel:
    """A slot-keyed event heap driving the traffic simulation.

    Usage::

        kernel = EventKernel()
        kernel.schedule(arrival_slot, session.issue)
        kernel.run()          # drains the heap in slot order

    Actions are callables taking the kernel; they may schedule further
    events at any slot >= ``now`` (scheduling into the past is a logic
    error and raises :class:`SimulationError`, which is also a
    ``ValueError``).

    :meth:`schedule` returns an event id that :meth:`cancel` accepts, so
    a long-running driver (the online broadcast server) can retract a
    provisional completion event when a splice changes its outcome.
    Cancellation is lazy - the heap entry is skipped when it surfaces -
    so cancelling is O(1) and the heap never needs re-ordering.
    """

    __slots__ = (
        "_heap",
        "_sequence",
        "_now",
        "_processed",
        "_running",
        "_live",
        "_cancelled",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Action]] = []
        self._sequence = 0
        self._now = 0
        self._processed = 0
        self._running = False
        self._live: set[int] = set()
        self._cancelled: set[int] = set()

    @property
    def now(self) -> int:
        """The current slot: the event being (or last) processed, or the
        ``until`` bound of the latest :meth:`run` when that is later."""
        return self._now

    @property
    def processed(self) -> int:
        """Events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Events scheduled but not yet executed or cancelled."""
        return len(self._live)

    def schedule(self, slot: int, action: Action) -> int:
        """Enqueue ``action`` to run at ``slot``; return its event id.

        Same-slot events run in the order they were scheduled.  The
        returned id can be passed to :meth:`cancel` while the event is
        still pending.
        """
        if slot < self._now:
            raise SimulationError(
                f"cannot schedule an event at slot {slot}: the kernel is "
                f"already at slot {self._now}"
            )
        event_id = self._sequence
        heappush(self._heap, (slot, event_id, action))
        self._sequence += 1
        self._live.add(event_id)
        return event_id

    def cancel(self, event_id: int) -> bool:
        """Retract a pending event; return whether anything was cancelled.

        ``True`` means the event existed and had not yet run; it will be
        silently skipped when its heap entry surfaces.  ``False`` means
        the id was unknown, already executed, or already cancelled -
        cancellation is idempotent, never an error.
        """
        if event_id not in self._live:
            return False
        self._live.discard(event_id)
        self._cancelled.add(event_id)
        return True

    def peek(self) -> int | None:
        """The slot of the next live event, or ``None`` when drained.

        Discards cancelled entries that have bubbled to the top, so the
        answer always refers to an event that will actually run.
        """
        heap = self._heap
        while heap and heap[0][1] in self._cancelled:
            self._cancelled.discard(heappop(heap)[1])
        return heap[0][0] if heap else None

    def run(self, *, until: int | None = None) -> int:
        """Pop and execute events in slot order; return how many ran.

        ``until`` stops the loop before the first event strictly beyond
        that slot (the event stays queued); ``None`` drains the heap.

        A bounded run always returns with ``now == max(now, until)``,
        even when the heap drains early: the kernel has observed every
        slot up to ``until``, so a later :meth:`schedule` into that range
        would be an event in the past and is rejected.
        """
        if self._running:
            raise SimulationError("kernel is already running")
        self._running = True
        ran = 0
        try:
            heap = self._heap
            while heap:
                slot, seq, _ = heap[0]
                if seq in self._cancelled:
                    heappop(heap)
                    self._cancelled.discard(seq)
                    continue
                if until is not None and slot > until:
                    break
                slot, seq, action = heappop(heap)
                self._live.discard(seq)
                self._now = slot
                action(self)
                ran += 1
                self._processed += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until
        return ran

    def __repr__(self) -> str:
        return (
            f"EventKernel(now={self._now}, pending={self.pending}, "
            f"processed={self._processed})"
        )
