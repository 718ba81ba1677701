"""The broadcast program abstraction.

A broadcast program (Definition 1 of Section 4.1) maps each time slot to
the file transmitted in that slot - or to nothing.  Under AIDA a slot
additionally carries *which* dispersed block of the file goes out, and the
server rotates through ``n_i`` distinct blocks of file ``i`` across its
service slots.  Two periods matter (Section 2.3, Figure 6):

* the **broadcast period** - the cycle of the slot-to-file map; it is
  sized so every window contains enough blocks of each file;
* the **program data cycle** - the longer cycle after which the
  (file, block) content repeats; block rotation makes consecutive
  services carry *distinct* blocks, which is what turns "r errors cost r
  full periods" (Lemma 1) into "r errors cost r inter-block gaps"
  (Lemma 2).

:class:`BroadcastProgram` wraps a verified :class:`repro.core.Schedule`
(owners = file names) with per-file block-rotation counts, and exposes the
quantities the lemmas and the simulator need: ``Pi`` (broadcast period),
``Delta_i`` (max inter-service gap), and exact distinct-block window
minima - service counts, since rotation makes ``k`` consecutive
services carry ``min(k, n_i)`` distinct blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import ProgramError, SpecificationError
from repro.core.schedule import IDLE, Schedule


@dataclass(frozen=True, slots=True)
class SlotContent:
    """What one slot carries: a file name and a dispersed block index."""

    file: str
    block_index: int

    def __str__(self) -> str:
        return f"{self.file}'{self.block_index + 1}"


class BroadcastProgram:
    """A cyclic broadcast program with AIDA block rotation.

    Parameters
    ----------
    schedule:
        The slot-to-file map (owners are file names; ``IDLE`` allowed).
    block_counts:
        For each file, the number ``n_i`` of distinct dispersed blocks the
        server rotates through.  Files absent from the mapping rotate
        through exactly their per-cycle occurrence count (i.e. every
        period transmits the same blocks - the plain Figure 5 regime).
    """

    # ``__weakref__`` lets the occurrence index point back weakly, so a
    # program and its index form no reference cycle and are freed as
    # soon as the last outside reference drops.
    __slots__ = (
        "_schedule", "_block_counts", "_files", "_data_cycle", "_index",
        "__weakref__",
    )

    def __init__(
        self,
        schedule: Schedule,
        block_counts: Mapping[str, int] | None = None,
    ) -> None:
        self._schedule = schedule
        counts: dict[str, int] = {}
        for file in schedule.owners():
            per_cycle = schedule.total(file)
            requested = (
                block_counts.get(file, per_cycle)
                if block_counts is not None
                else per_cycle
            )
            if requested < 1:
                raise ProgramError(
                    f"file {file!r}: block count must be >= 1, "
                    f"got {requested}"
                )
            counts[file] = requested
        if block_counts:
            unknown = set(block_counts) - set(counts)
            if unknown:
                raise ProgramError(
                    f"block counts for files not in the program: {unknown}"
                )
        self._block_counts = counts
        self._files = tuple(counts)
        # Data cycle: after `k` schedule cycles, file i has had
        # k * per_cycle occurrences; content repeats when every file's
        # occurrence count is a multiple of its n_i.
        multiplier = 1
        for file, n_blocks in counts.items():
            per_cycle = schedule.total(file)
            repeat = n_blocks // math.gcd(n_blocks, per_cycle)
            multiplier = math.lcm(multiplier, repeat)
        self._data_cycle = schedule.cycle_length * multiplier
        self._index = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def schedule(self) -> Schedule:
        """The underlying slot-to-file schedule."""
        return self._schedule

    @property
    def broadcast_period(self) -> int:
        """The paper's ``Pi``: the slot-to-file cycle length."""
        return self._schedule.cycle_length

    @property
    def data_cycle_length(self) -> int:
        """The program data cycle: period of the (file, block) content."""
        return self._data_cycle

    @property
    def files(self) -> tuple[str, ...]:
        """Files appearing in the program, in order of first appearance.

        Stored at construction (the block-count keys are exactly the
        schedule's owners), so membership checks never rescan the cycle.
        """
        return self._files

    def block_count(self, file: str) -> int:
        """``n_i``: distinct blocks file ``i`` rotates through."""
        return self._block_counts[file]

    @property
    def index(self) -> "ProgramIndex":
        """The program's occurrence index (built lazily, exactly once).

        Per-file occurrence tables are tiled from the schedule's
        service slots in O(services per data cycle); every simulator
        sharing this program shares the same index.
        """
        if self._index is None:
            from repro.bdisk.program_index import ProgramIndex

            self._index = ProgramIndex(self)
        return self._index

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __getstate__(self) -> tuple[Schedule, dict[str, int], int]:
        # The occurrence index never crosses a pickle: pool tasks that
        # need it rebuild lazily (vectorized non-temporal shards get the
        # parent's retrieval tables instead), so shipping a program
        # costs the schedule alone.
        return self._schedule, self._block_counts, self._data_cycle

    def __setstate__(
        self, state: tuple[Schedule, dict[str, int], int]
    ) -> None:
        self._schedule, self._block_counts, self._data_cycle = state
        self._files = tuple(self._block_counts)
        self._index = None

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------

    def slot_content(self, t: int) -> SlotContent | None:
        """The ``(file, block)`` transmitted in slot ``t`` (None = idle).

        Block rotation: the ``c``-th service of file ``i`` (counting from
        the start of the data cycle) carries block ``c mod n_i``.  An O(1)
        lookup into the precomputed occurrence index.
        """
        if t < 0:
            raise SpecificationError(f"slot index must be >= 0, got {t}")
        return self.index.contents[t % self._data_cycle]

    def content_cycle(self) -> list[SlotContent | None]:
        """One full data cycle of slot contents."""
        return list(self.index.contents)

    def slots(self, horizon: int) -> Iterator[tuple[int, SlotContent | None]]:
        """Yield ``(t, content)`` for ``t = 0 .. horizon - 1``."""
        for t in range(horizon):
            yield t, self.slot_content(t)

    # ------------------------------------------------------------------
    # Metrics the lemmas use
    # ------------------------------------------------------------------

    def max_gap(self, file: str) -> int:
        """Lemma 2's ``Delta``: largest spacing between services of
        ``file``.  Raises for files the program never serves."""
        gap = self._schedule.max_gap(file)
        if gap is None:
            raise ProgramError(f"file {file!r} never appears in the program")
        return gap

    def min_count_in_window(self, file: str, window: int) -> int:
        """Minimum service slots of ``file`` over all windows of ``window``."""
        return self._schedule.min_window(file, window)[1]

    def min_distinct_in_window(self, file: str, window: int) -> int:
        """Minimum *distinct block indices* of ``file`` in any window.

        This is the fault-tolerance quantity: with AIDA, ``j`` losses in a
        window still permit reconstruction iff the window held at least
        ``m + j`` distinct blocks.  Consecutive services carry consecutive
        blocks of the rotation, so ``k`` services carry ``min(k, n_i)``
        distinct blocks and the sparsest window decides: one
        :meth:`Schedule.min_window` call, no slot or occurrence walk.  A
        file the program never serves has none.
        """
        if window < 0:
            raise ProgramError(f"window must be >= 0: {window}")
        if file not in self._block_counts:
            return 0
        services = self._schedule.min_window(file, window)[1]
        return min(services, self._block_counts[file])

    def verify_fault_tolerance(
        self, file: str, m: int, faults: int, window: int
    ) -> bool:
        """Whether any ``window`` guarantees reconstruction under faults.

        True iff every window of ``window`` slots carries at least
        ``m + faults`` distinct blocks of ``file``: then any ``faults``
        losses still leave ``m`` distinct blocks for IDA.
        """
        return self.min_distinct_in_window(file, window) >= m + faults

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, *, periods: int | None = None) -> str:
        """Figure 5/6-style rendering, e.g. ``A'1 B'1 A'2 ...``.

        ``periods`` limits output to that many broadcast periods
        (default: one full data cycle).
        """
        horizon = (
            self._data_cycle
            if periods is None
            else periods * self.broadcast_period
        )
        parts = []
        for t in range(horizon):
            content = self.slot_content(t)
            parts.append("--" if content is None else str(content))
        return " ".join(parts)

    def __repr__(self) -> str:
        return (
            f"BroadcastProgram(period={self.broadcast_period}, "
            f"data_cycle={self._data_cycle}, files={list(self.files)})"
        )
