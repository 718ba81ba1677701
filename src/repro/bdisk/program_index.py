"""Precomputed occurrence tables for a broadcast program.

Every simulation question about a :class:`~repro.bdisk.program.BroadcastProgram`
reduces to questions about *occurrences* - the slots at which a file is
served and the block index each service carries.  The seed implementations
answered them by walking the program slot by slot, paying the per-slot
``slot_content`` arithmetic even for idle slots and slots of other files.

:class:`ProgramIndex` holds everything the simulators need:

* per-file occurrence arrays (slot positions and block indices), so a
  client can jump occurrence-to-occurrence instead of scanning idle air.
  They are built from the schedule's service slots, tiled over the data
  cycle, in O(services) - never by a walk over idle slots;
* lazily, the full content table of one data cycle (making
  ``slot_content`` an O(1) list lookup), filled from those arrays on
  first use;
* per ``(file, m)``, lazily, the fault-free finish of a retrieval that
  starts at each occurrence (O(log occurrences) fault-free outcomes for
  any start slot).

The index is immutable once built (the finish tables are a cache) and
is shared by every consumer of the same program;
:attr:`BroadcastProgram.index` builds it lazily exactly once, at the
program's first retrieval.  All quantities are defined over the *data
cycle* (the period of the ``(file, block)`` content), so block indices
repeat exactly beyond it and the occurrence generator can extend the
tables cyclically forever.

Service counts and gaps depend only on the slot-to-file map, so
:class:`~repro.core.schedule.Schedule` answers them; the data cycle is a
multiple of the schedule cycle, so its answers hold here too.  Rotation
turns service counts into block counts - ``k`` consecutive services
carry ``min(k, n)`` distinct blocks - so distinct-block window minima
(:meth:`BroadcastProgram.min_distinct_in_window`), fault-free finishes
and worst-case delays (:mod:`repro.sim.delay`) are arithmetic on them,
and a design never builds this index.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator

from repro.errors import ProgramError, SpecificationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bdisk.program import BroadcastProgram, SlotContent


class ProgramIndex:
    """Occurrence tables over one data cycle of a broadcast program.

    Construction costs O(services per data cycle); every query
    afterwards is O(1) or O(log occurrences).  Obtain the shared instance
    via :attr:`BroadcastProgram.index` rather than constructing directly.
    """

    __slots__ = (
        "_program",
        "_cycle",
        "_contents",
        "_slots",
        "_blocks",
        "_widths",
        "_finish",
    )

    def __init__(self, program: "BroadcastProgram") -> None:
        # Weak: the program owns its index, so a strong back-reference
        # would make every program a reference cycle whose tables live
        # until a full garbage collection.
        self._program = weakref.ref(program)
        self._finish: dict[tuple[str, int], tuple[int, ...]] = {}
        schedule = program.schedule
        cycle = program.data_cycle_length
        self._cycle = cycle
        self._contents: tuple["SlotContent" | None, ...] | None = None

        # The data cycle is a whole number of schedule cycles, and
        # service c from slot 0 carries block c mod n; the services per
        # data cycle are a multiple of n, so the blocks are whole
        # rotations.
        bases = range(0, cycle, schedule.cycle_length)
        self._slots: dict[str, tuple[int, ...]] = {}
        self._blocks: dict[str, tuple[int, ...]] = {}
        self._widths = {
            file: program.block_count(file) for file in program.files
        }
        for file, width in self._widths.items():
            served = schedule.service_slots(file)
            slots = tuple(base + slot for base in bases for slot in served)
            self._slots[file] = slots
            self._blocks[file] = tuple(range(width)) * (len(slots) // width)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def program(self) -> "BroadcastProgram | None":
        """The program this index describes (``None`` once it is freed)."""
        return self._program()

    @property
    def data_cycle_length(self) -> int:
        """The period of the content table."""
        return self._cycle

    @property
    def contents(self) -> tuple["SlotContent" | None, ...]:
        """One full data cycle of slot contents (shared, immutable).

        Built on first use from the occurrence arrays: idle slots stay
        ``None``, and each file's ``n`` block contents are made once.
        """
        if self._contents is None:
            from repro.bdisk.program import SlotContent

            contents: list["SlotContent" | None] = [None] * self._cycle
            for file, slots in self._slots.items():
                carried = [
                    SlotContent(file, block)
                    for block in range(self._widths[file])
                ]
                for slot, block in zip(slots, self._blocks[file]):
                    contents[slot] = carried[block]
            self._contents = tuple(contents)
        return self._contents

    @property
    def files(self) -> tuple[str, ...]:
        """Files with occurrence tables (= the program's files)."""
        return tuple(self._slots)

    def occurrence_arrays(
        self, file: str
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """:meth:`occurrence_slots` and :meth:`occurrence_blocks` in one
        lookup."""
        try:
            return self._slots[file], self._blocks[file]
        except KeyError:
            raise ProgramError(
                f"file {file!r} never appears in the program"
            ) from None

    # ------------------------------------------------------------------
    # Occurrence queries
    # ------------------------------------------------------------------

    def occurrence_slots(self, file: str) -> tuple[int, ...]:
        """Slots of one data cycle at which ``file`` is served (sorted)."""
        return self.occurrence_arrays(file)[0]

    def occurrence_blocks(self, file: str) -> tuple[int, ...]:
        """Block indices aligned with :meth:`occurrence_slots`."""
        return self.occurrence_arrays(file)[1]

    def occurrences(self, file: str) -> tuple[tuple[int, int], ...]:
        """``(slot, block_index)`` pairs of one data cycle, in slot order."""
        slots, blocks = self.occurrence_arrays(file)
        return tuple(zip(slots, blocks))

    def occurrences_per_cycle(self, file: str) -> int:
        """Services of ``file`` per data cycle."""
        return len(self.occurrence_arrays(file)[0])

    def next_occurrence(self, file: str, t: int) -> tuple[int, int]:
        """First ``(slot, block_index)`` of ``file`` at a slot >= ``t``.

        Works on the infinite periodic extension; O(log occurrences).
        """
        if t < 0:
            raise SpecificationError(f"slot index must be >= 0, got {t}")
        slots, blocks = self.occurrence_arrays(file)
        if not slots:
            raise ProgramError(f"file {file!r} never appears in the program")
        base, within = divmod(t, self._cycle)
        k = bisect_left(slots, within)
        if k == len(slots):
            base += 1
            k = 0
        return base * self._cycle + slots[k], blocks[k]

    def occurrences_from(
        self, file: str, start: int
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(slot, block_index)`` for every service of ``file`` at
        slots >= ``start``, in slot order, forever.

        This is the occurrence-walker primitive: consumers jump from
        service to service without ever touching idle slots or slots of
        other files.
        """
        if start < 0:
            raise SpecificationError(f"slot index must be >= 0, got {start}")
        slots, blocks = self.occurrence_arrays(file)
        if not slots:
            return
        cycle = self._cycle
        quotient, within = divmod(start, cycle)
        base = quotient * cycle
        k = bisect_left(slots, within)
        count = len(slots)
        while True:
            while k < count:
                yield base + slots[k], blocks[k]
                k += 1
            base += cycle
            k = 0

    # ------------------------------------------------------------------
    # Fault-free finish tables
    # ------------------------------------------------------------------

    def finish_table(self, file: str, m_needed: int) -> tuple[int, ...]:
        """Per occurrence ``j`` of one data cycle: the slot (relative to
        occurrence ``j``'s cycle base) at which a fault-free IDA
        retrieval of ``file`` starting at ``j`` collects its
        ``m_needed``-th distinct block - ``-1`` when the file never
        carries that many distinct blocks.

        Consecutive services carry consecutive blocks of the rotation,
        so the ``need``-th distinct block is occurrence
        ``j + need - 1`` whenever ``need <= n``.  Built on first use per
        ``(file, m_needed)``, then cached.
        """
        need = max(1, m_needed)  # a 0-block file completes at the 1st block
        key = (file, need)
        table = self._finish.get(key)
        if table is None:
            slots = self.occurrence_arrays(file)[0]
            if need > self._widths[file]:
                table = (-1,) * len(slots)
            else:
                # need - 1 < n <= occurrences: at most one wrap.
                table = slots[need - 1:] + tuple(
                    slot + self._cycle for slot in slots[: need - 1]
                )
            self._finish[key] = table
        return table

    def fault_free_finish(
        self, file: str, m_needed: int, start: int
    ) -> int | None:
        """The slot at which a fault-free IDA retrieval of ``file`` from
        ``start`` collects ``m_needed`` distinct blocks, ignoring any
        horizon - ``None`` when it never does.

        A retrieval that listens ``horizon`` slots completes iff the
        answer is below ``start + horizon``, at exactly the slot
        :func:`repro.sim.client.retrieve` reports over the clean channel;
        this costs O(log occurrences) instead of a walk.
        """
        if start < 0:
            raise SpecificationError(f"slot index must be >= 0, got {start}")
        table = self.finish_table(file, m_needed)
        slots = self._slots[file]
        quotient, within = divmod(start, self._cycle)
        k = bisect_left(slots, within)
        if k == len(slots):
            quotient += 1
            k = 0
        relative = table[k]
        return None if relative < 0 else quotient * self._cycle + relative

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------

    def content(self, t: int) -> "SlotContent" | None:
        """The ``(file, block)`` of slot ``t`` - an O(1) table lookup."""
        if t < 0:
            raise SpecificationError(f"slot index must be >= 0, got {t}")
        return self.contents[t % self._cycle]

    def __repr__(self) -> str:
        return (
            f"ProgramIndex(data_cycle={self._cycle}, "
            f"files={list(self.files)})"
        )
