"""Cyclic schedules over a slotted resource.

A schedule assigns each time slot ``t`` (a non-negative integer) to at most
one owner, in accordance with the paper's Integral Boundary Constraint.  We
represent the infinite periodic schedule by one cycle: slot ``t`` is owned by
``cycle[t mod L]``.  The sentinel :data:`IDLE` marks unallocated slots (the
paper writes ``*`` in Example 1 and ``P(t) = 0`` in Section 4.1).

The class is the library's one authority on window arithmetic, and it
answers every question from each owner's sorted service slots:

* ``count_in_window(owner, start, length)`` - services of an owner in
  *any* window of the infinite schedule, by bisection over one cycle's
  service slots;
* ``min_window(owner, length)`` - the earliest sparsest window and its
  count, which is exactly what a ``pc`` condition bounds.  Only ``n + 1``
  starts need checking for ``n`` services per cycle (see the method);
* ``max_gap(owner)`` - the largest spacing between consecutive services,
  which is the AIDA quantity ``Delta`` of Lemma 2.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SpecificationError

#: Sentinel owner for unallocated slots.
IDLE: None = None

OwnerKey = Hashable


class Schedule:
    """An immutable cyclic schedule.

    Parameters
    ----------
    cycle:
        The slot owners for one period.  ``IDLE`` (``None``) marks an
        unallocated slot.  The cycle must be non-empty.
    """

    __slots__ = ("_cycle", "_positions")

    def __init__(self, cycle: Iterable[OwnerKey]) -> None:
        cycle_tuple = tuple(cycle)
        if not cycle_tuple:
            raise SpecificationError("schedule cycle must be non-empty")
        self._cycle: tuple[OwnerKey, ...] = cycle_tuple
        # Lazily-built per-owner service slots.
        self._positions: dict[OwnerKey, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_residue_classes(
        cls,
        cycle_length: int,
        assignments: Mapping[OwnerKey, Sequence[tuple[int, int]]],
    ) -> "Schedule":
        """Build a schedule from residue-class assignments.

        ``assignments`` maps each owner to ``(offset, modulus)`` pairs; the
        owner receives every slot ``t`` with ``t = offset (mod modulus)``.
        This is the natural output format of the harmonic and reduction
        schedulers: giving a task ``a`` residue classes modulo ``b`` yields
        exactly ``a`` slots in *every* window of ``b`` consecutive slots.

        Raises
        ------
        SpecificationError
            If a modulus does not divide ``cycle_length`` (the result would
            not be periodic) or two classes collide on a slot.
        """
        slots: list[OwnerKey] = [IDLE] * cycle_length
        for owner, classes in assignments.items():
            for offset, modulus in classes:
                if modulus <= 0 or not 0 <= offset < modulus:
                    raise SpecificationError(
                        f"bad residue class ({offset}, {modulus}) "
                        f"for owner {owner!r}"
                    )
                if cycle_length % modulus != 0:
                    raise SpecificationError(
                        f"modulus {modulus} does not divide cycle length "
                        f"{cycle_length}"
                    )
                for slot in range(offset, cycle_length, modulus):
                    if slots[slot] is not IDLE:
                        raise SpecificationError(
                            f"slot {slot} assigned to both "
                            f"{slots[slot]!r} and {owner!r}"
                        )
                    slots[slot] = owner
        return cls(slots)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> tuple[OwnerKey, ...]:
        """One period of the schedule."""
        return self._cycle

    @property
    def cycle_length(self) -> int:
        """The period ``L``."""
        return len(self._cycle)

    def owner_at(self, t: int) -> OwnerKey:
        """The owner of slot ``t`` of the infinite schedule (``t >= 0``)."""
        if t < 0:
            raise SpecificationError(f"slot index must be >= 0, got {t}")
        return self._cycle[t % len(self._cycle)]

    def owners(self) -> tuple[OwnerKey, ...]:
        """Distinct non-idle owners, in order of first appearance."""
        seen: dict[OwnerKey, None] = {}
        for owner in self._cycle:
            if owner is not IDLE and owner not in seen:
                seen[owner] = None
        return tuple(seen)

    def idle_count(self) -> int:
        """Number of idle slots per cycle."""
        return sum(1 for owner in self._cycle if owner is IDLE)

    def utilization(self) -> float:
        """Fraction of slots per cycle that are allocated."""
        return 1.0 - self.idle_count() / len(self._cycle)

    # ------------------------------------------------------------------
    # Window arithmetic
    # ------------------------------------------------------------------

    def total(self, owner: OwnerKey) -> int:
        """Occurrences of ``owner`` per cycle."""
        return len(self.service_slots(owner))

    def count_in_window(self, owner: OwnerKey, start: int, length: int) -> int:
        """Occurrences of ``owner`` in slots ``[start, start + length)``.

        Works on the infinite periodic extension, so ``start`` may be any
        non-negative integer and ``length`` may exceed the cycle length.
        """
        if length < 0:
            raise SpecificationError(f"window length must be >= 0: {length}")
        if start < 0:
            raise SpecificationError(f"window start must be >= 0: {start}")
        cycle_len = len(self._cycle)
        positions = self.service_slots(owner)

        def cumulative(upto: int) -> int:
            """Occurrences in slots [0, upto) of the infinite schedule."""
            full, rem = divmod(upto, cycle_len)
            return full * len(positions) + bisect_left(positions, rem)

        return cumulative(start + length) - cumulative(start)

    def min_window(self, owner: OwnerKey, length: int) -> tuple[int, int]:
        """``(start, count)`` of the sparsest window of ``length`` slots.

        ``start`` is the earliest minimizing start in ``[0, L)``; by
        periodicity the minimum over those ``L`` windows is the minimum
        over every window of the infinite schedule.  As a window's start
        moves right through a gap between services it loses no service,
        so its count never falls: only slot 0 and the slot just after
        each service can start a sparsest window.  Slot 0 also stands for
        the gap that wraps past the end of the cycle.

        The window after the ``k``-th service of a cycle starts past ``k``
        services, so its count is the services before its end minus
        ``k``: one bisection per service.
        """
        if length < 0:
            raise SpecificationError(f"window length must be >= 0: {length}")
        positions = self.service_slots(owner)
        per_cycle = len(positions)
        cycle_len = len(self._cycle)
        full, rem = divmod(length, cycle_len)
        best_start, best = 0, full * per_cycle + bisect_left(positions, rem)
        after = length + 1
        for served, slot in enumerate(positions, 1):
            # A service in the last slot wraps to start 0 with the same
            # count, so it never displaces the start checked above.
            full, rem = divmod(slot + after, cycle_len)
            count = full * per_cycle + bisect_left(positions, rem) - served
            if count < best:
                best_start, best = slot + 1, count
        return best_start, best

    def service_slots(self, owner: OwnerKey) -> tuple[int, ...]:
        """Slots within one cycle at which ``owner`` is served (sorted).

        This is one period of the paper's ``P:i`` sequence.
        """
        positions = self._positions.get(owner)
        if positions is None:
            # ``tuple.index`` scans the cycle in C; Python runs once per
            # service found.
            found = []
            find = self._cycle.index
            slot = -1
            try:
                while True:
                    slot = find(owner, slot + 1)
                    found.append(slot)
            except ValueError:
                pass
            positions = self._positions[owner] = tuple(found)
        return positions

    def gaps(self, owner: OwnerKey) -> tuple[int, ...]:
        """Cyclic spacings between consecutive services of ``owner``.

        A gap of ``g`` means the next service comes ``g`` slots after the
        previous one (adjacent slots have gap 1).  The gaps sum to the cycle
        length.  An owner served once per cycle has the single gap ``L``.
        """
        positions = self.service_slots(owner)
        if not positions:
            return ()
        cycle_len = len(self._cycle)
        if len(positions) == 1:
            return (cycle_len,)
        spaced = [
            positions[i + 1] - positions[i] for i in range(len(positions) - 1)
        ]
        spaced.append(cycle_len - positions[-1] + positions[0])
        return tuple(spaced)

    def max_gap(self, owner: OwnerKey) -> int | None:
        """The largest service gap - Lemma 2's ``Delta`` for this owner.

        Returns ``None`` when the owner never appears.
        """
        gap_list = self.gaps(owner)
        return max(gap_list) if gap_list else None

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def rotated(self, offset: int) -> "Schedule":
        """The same infinite schedule started ``offset`` slots later."""
        cycle_len = len(self._cycle)
        offset %= cycle_len
        return Schedule(self._cycle[offset:] + self._cycle[:offset])

    def repeated(self, times: int) -> "Schedule":
        """A schedule whose cycle is this one repeated ``times`` times."""
        if times < 1:
            raise SpecificationError(f"repeat count must be >= 1: {times}")
        return Schedule(self._cycle * times)

    def relabel(self, mapping: Callable[[OwnerKey], OwnerKey]) -> "Schedule":
        """Apply ``mapping`` to every non-idle owner.

        This implements the paper's ``map(i', i)`` projection: virtual tasks
        introduced by rules R4/R5 are folded back onto the broadcast file
        they serve.  Distinct owners may map to the same owner.
        """
        return Schedule(
            IDLE if owner is IDLE else mapping(owner) for owner in self._cycle
        )

    def slots(self, horizon: int) -> Iterator[tuple[int, OwnerKey]]:
        """Yield ``(t, owner)`` for slots ``0 .. horizon - 1``."""
        cycle_len = len(self._cycle)
        for t in range(horizon):
            yield t, self._cycle[t % cycle_len]

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._cycle == other._cycle

    def __hash__(self) -> int:
        return hash(self._cycle)

    def __len__(self) -> int:
        return len(self._cycle)

    def __str__(self) -> str:
        rendered = ", ".join(
            "*" if owner is IDLE else str(owner) for owner in self._cycle
        )
        return f"[{rendered}]"

    def __repr__(self) -> str:
        return f"Schedule(cycle_length={len(self._cycle)}, cycle={self})"
