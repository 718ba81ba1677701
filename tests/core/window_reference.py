"""References for the window kernel, shared by the core tests."""

from typing import Hashable, Sequence


def brute_force_min_window(
    slots: Sequence[Hashable], owner: Hashable, length: int
) -> tuple[int, int]:
    """``(start, count)`` of the earliest sparsest window of ``length``.

    Treats ``slots`` as one period of a cyclic schedule and counts every
    window start's occurrences slot by slot.  Quadratic, so only small
    cycles belong here.
    """
    period = len(slots)
    best_start, best = 0, None
    for start in range(period):
        count = sum(
            1 for k in range(length) if slots[(start + k) % period] == owner
        )
        if best is None or count < best:
            best_start, best = start, count
    return best_start, best


def per_service_min_window(schedule, owner: Hashable, length: int):
    """The window kernel as first written over ``Schedule``: one
    ``count_in_window`` call from slot 0 and from the slot after each
    service, keeping the earliest minimizing start."""
    best_start = 0
    best = schedule.count_in_window(owner, 0, length)
    cycle_len = schedule.cycle_length
    positions = tuple(
        slot for slot, o in enumerate(schedule.cycle) if o == owner
    )
    for slot in positions:
        start = (slot + 1) % cycle_len
        count = schedule.count_in_window(owner, start, length)
        if count < best:
            best_start, best = start, count
    return best_start, best
