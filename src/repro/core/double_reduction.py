"""Double-integer reduction scheduler ``Sx`` (after Chan & Chin [12, 13]).

Chan & Chin improved the single-number reduction by specializing windows
onto a richer base set.  We implement the reduction in their spirit:

* **Base set** ``B(x) = {x * 2**j} U {3x * 2**j}`` - two interleaved
  geometric chains.  Consecutive elements of ``B(x)`` are within a factor
  of 3/2 of each other from ``2x`` upward, so specialization loses far less
  density than the pure power-of-two chain.
* **Exact scheduling of specialized systems** by hierarchical residue-class
  *tree* allocation.  A node represents a residue class ``(offset mod M)``.
  A node of modulus ``x * 2**j`` may be split into two children of modulus
  ``x * 2**(j+1)`` or three children of modulus ``3x * 2**j``; a node of
  modulus ``3x * 2**j`` may only be split by two.  Along any root-to-leaf
  path at most one 3-split occurs, so every modulus stays inside ``B(x)``.
  The tree is split lazily: a design builds only the classes on the
  paths to those it hands out.
* **Base search**: all bases at which some window specializes exactly are
  tried in order of increasing specialized density, ranked in exact
  integers.

The scheduler is *sound by construction + verification*: residue classes
give exact window counts, and the final schedule is verified against the
original windows.  The paper uses Chan & Chin as a black box "density <=
7/10 implies schedulable"; the test suite and
``benchmarks/bench_scheduler_thresholds.py`` validate this implementation
at that operating point on randomized instances (see DESIGN.md,
Substitutions).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from repro.errors import SchedulingError, SpecificationError
from repro.core.schedule import Schedule
from repro.core.task import PinwheelSystem, PinwheelTask
from repro.core.verify import verify_schedule
from repro.core.conditions import PinwheelCondition

#: The Chan & Chin density bound the paper quotes (Section 3.1).
CHAN_CHIN_BOUND = Fraction(7, 10)


def double_specialize_window(window: int, base: int) -> int:
    """Largest element of ``B(base)`` that is at most ``window``."""
    if window < base:
        raise SpecificationError(
            f"window {window} smaller than base {base}"
        )
    # ``stem * 2**j <= window`` exactly when ``2**j <= window // stem``.
    best = base << ((window // base).bit_length() - 1)
    tri = window // (3 * base)
    if tri:
        best = max(best, 3 * base << (tri.bit_length() - 1))
    return best


def specialize_double(system: PinwheelSystem, base: int) -> PinwheelSystem:
    """Specialize every window of ``system`` onto ``B(base)``."""
    return PinwheelSystem(
        PinwheelTask(t.ident, t.a, double_specialize_window(t.b, base))
        for t in system.tasks
    )


def candidate_bases(windows: Iterable[int]) -> list[int]:
    """Bases at which some window specializes exactly onto ``B(x)``.

    The specialized density, as a function of the base ``x``, changes only
    where some ``b_i`` equals ``x * 2**j`` or ``3x * 2**j``; it therefore
    suffices to try ``b_i >> j`` and ``(b_i // 3) >> j``.
    """
    window_list = list(windows)
    if not window_list:
        raise SpecificationError("no windows supplied")
    smallest = min(window_list)
    bases: set[int] = set()
    for window in window_list:
        for seed in (window, window // 3):
            value = seed
            while value >= 1:
                if value <= smallest:
                    bases.add(value)
                value //= 2
    return sorted(bases)


class _ResiduePool:
    """The free residue classes of one kind (pure or tri) at one level.

    Read as a fully split tree, the pool lists at level ``j`` every free
    class 2-split down to ``j``: each 2-split turns ``[n0, n1, ...]``
    into ``[c0(n0), c1(n0), c0(n1), ...]``, and classes are taken from
    the end.  Each entry ``(offset, modulus, level)`` here is one class
    split down to ``level`` that stands for all its descendants at the
    current level, in that order.  Only :meth:`pop` splits, and only the
    last entry, so the classes handed out are the fully split pool's
    while the work is proportional to what is placed.
    """

    __slots__ = ("kind", "entries", "level", "size")

    def __init__(
        self, kind: str, entries: list[tuple[int, int, int]]
    ) -> None:
        self.kind = kind
        self.entries = entries
        self.level = 0
        self.size = len(entries)

    def descend(self) -> None:
        """Go one level down: every free class 2-splits."""
        self.level += 1
        self.size *= 2

    def push(self, offset: int, modulus: int) -> None:
        """Free one class of the current level at the end."""
        self.entries.append((offset, modulus, self.level))
        self.size += 1

    def pop(self) -> tuple[int, int]:
        """Take the last class of the current level."""
        entries = self.entries
        offset, modulus, level = entries.pop()
        while level < self.level:
            # 2-split: the first child stays free, the last is split on.
            level += 1
            entries.append((offset, 2 * modulus, level))
            offset += modulus
            modulus *= 2
        self.size -= 1
        return offset, modulus

    def take(self, task: PinwheelTask, base: int) -> list[tuple[int, int]]:
        """The ``task.a`` classes ``task`` is handed, last first."""
        if self.size < task.a:
            raise SchedulingError(
                f"double reduction (base {base}): {self.kind} pool "
                f"exhausted for task {task.ident!r} (needs {task.a}, "
                f"has {self.size})"
            )
        return [self.pop() for _ in range(task.a)]


def _classify(window: int, base: int) -> tuple[int, bool]:
    """Return ``(level j, tri?)`` such that ``window = base * 2**j`` or
    ``3 * base * 2**j``."""
    for tri, stem in ((False, base), (True, 3 * base)):
        value, level = stem, 0
        while value <= window:
            if value == window:
                return level, tri
            value *= 2
            level += 1
    raise SpecificationError(
        f"window {window} is not in the base set of {base}"
    )


def allocate_double(
    system: PinwheelSystem, base: int
) -> dict[object, list[tuple[int, int]]]:
    """Allocate residue classes for a ``B(base)``-specialized system.

    Level-by-level greedy: at level ``j`` the pure pool (modulus
    ``base * 2**j``) first serves pure demand; tri demand (modulus
    ``3 * base * 2**j``) is served from the tri pool, converting as few
    pure nodes as possible (each conversion 3-splits one pure node).
    Leftovers are 2-split into the next level's pools; the split is
    lazy (see :class:`_ResiduePool`), so only classes on the path to
    one that is handed out are ever built.

    Raises :class:`SchedulingError` when a pool runs dry.
    """
    demands_pure: dict[int, list[PinwheelTask]] = {}
    demands_tri: dict[int, list[PinwheelTask]] = {}
    max_level = 0
    for task in system.tasks:
        level, is_tri = _classify(task.b, base)
        target = demands_tri if is_tri else demands_pure
        target.setdefault(level, []).append(task)
        max_level = max(max_level, level)

    pure = _ResiduePool("pure", [(offset, base, 0) for offset in range(base)])
    tri = _ResiduePool("tri", [])
    assignments: dict[object, list[tuple[int, int]]] = {}
    for level in range(max_level + 1):
        for task in demands_pure.get(level, ()):
            assignments[task.ident] = pure.take(task, base)
        tri_need = sum(t.a for t in demands_tri.get(level, ()))
        shortfall = tri_need - tri.size
        if shortfall > 0:
            conversions = -(-shortfall // 3)  # ceil division
            if conversions > pure.size:
                raise SchedulingError(
                    f"double reduction (base {base}): cannot convert "
                    f"{conversions} pure nodes at level {level} "
                    f"(only {pure.size} free)"
                )
            for _ in range(conversions):
                offset, modulus = pure.pop()
                for k in range(3):
                    tri.push(offset + k * modulus, 3 * modulus)
        for task in demands_tri.get(level, ()):
            assignments[task.ident] = tri.take(task, base)
        if level < max_level:
            pure.descend()
            tri.descend()
    return assignments


def _cycle_length(assignments: dict[object, list[tuple[int, int]]]) -> int:
    """Least common multiple of every assigned modulus."""
    length = 1
    for classes in assignments.values():
        for _, modulus in classes:
            length = math.lcm(length, modulus)
    return length


def ranked_bases(system: PinwheelSystem) -> list[int]:
    """Candidate bases whose specialized density is at most 1.

    Sorted by exact specialized density, then by base.  The density is
    ranked in integers: with ``D`` the lcm of the specialized windows
    ``w_i``, it is ``sum(a_i * (D // w_i)) / D``.  A base at which some
    window shrinks below its requirement has a task of density above 1,
    so it is skipped too.
    """
    # Tasks sharing a window specialize together.
    demands: dict[int, int] = {}
    for task in system.tasks:
        demands[task.b] = demands.get(task.b, 0) + task.a
    ranked = []
    for candidate in candidate_bases(demands):
        specialized = [
            (double_specialize_window(window, candidate), demand)
            for window, demand in demands.items()
        ]
        lcm = math.lcm(*(window for window, _ in specialized))
        load = sum(demand * (lcm // window) for window, demand in specialized)
        if load <= lcm:
            ranked.append((Fraction(load, lcm), candidate))
    ranked.sort()
    return [candidate for _, candidate in ranked]


def schedule_double_reduction(
    system: PinwheelSystem, *, base: int | None = None, verify: bool = True
) -> Schedule:
    """Schedule via double-integer reduction.

    Tries candidate bases in order of increasing specialized density until
    the tree allocation succeeds; verifies the result against the original
    windows.  Raises :class:`SchedulingError` if every base fails.
    """
    if base is not None:
        bases = [base]
    else:
        bases = ranked_bases(system)
        if not bases:
            raise SchedulingError(
                f"double reduction: no base brings specialized density "
                f"under 1 (original density {float(system.density):.4f})"
            )

    last_error: SchedulingError | None = None
    for chosen in bases:
        try:
            specialized = specialize_double(system, chosen)
        except SpecificationError as error:
            last_error = SchedulingError(
                f"double reduction: base {chosen} unusable: {error}"
            )
            continue
        if specialized.density > 1:
            continue
        try:
            assignments = allocate_double(specialized, chosen)
        except SchedulingError as error:
            last_error = error
            continue
        schedule = Schedule.from_residue_classes(
            _cycle_length(assignments), assignments
        )
        if verify:
            verify_schedule(
                schedule,
                [PinwheelCondition(t.ident, t.a, t.b) for t in system.tasks],
            )
        return schedule
    raise last_error or SchedulingError(
        "double reduction: all candidate bases failed"
    )


from repro.core.registry import register_scheduler

register_scheduler(
    "double-reduction",
    applicable=lambda system: len(system) >= 1,
    cost=10,
    description=(
        "double-integer reduction (Chan & Chin; guaranteed below "
        "density 7/10)"
    ),
)(schedule_double_reduction)
