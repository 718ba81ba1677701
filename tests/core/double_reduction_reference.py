"""The double-integer reduction as first written, kept as oracles.

These are the first implementations behind the lazy allocator, the
integer ranking and the closed-form window specialization of
:mod:`repro.core.double_reduction`: they split every free residue
class at every level, sum one ``Fraction`` per task and walk each
chain of ``B(base)`` upward, exactly as the reduction is written down.
"""

from dataclasses import dataclass

from repro.core.double_reduction import (
    _classify,
    candidate_bases,
    specialize_double,
)
from repro.core.task import PinwheelSystem, PinwheelTask
from repro.errors import SchedulingError, SpecificationError


@dataclass(frozen=True, slots=True)
class Node:
    """A residue class ``offset mod modulus`` of the allocation tree."""

    offset: int
    modulus: int
    tri: bool

    def split(self, factor: int) -> list["Node"]:
        tri = self.tri or factor == 3
        return [
            Node(self.offset + k * self.modulus, factor * self.modulus, tri)
            for k in range(factor)
        ]


def walked_specialize_window(window: int, base: int) -> int:
    """Largest element of ``B(base)`` that is at most ``window``."""
    if window < base:
        raise SpecificationError(
            f"window {window} smaller than base {base}"
        )
    best = base
    value = base
    while value <= window:
        best = value
        value *= 2
    value = 3 * base
    while value <= window:
        best = max(best, value)
        value *= 2
    return best


def eager_allocate_double(
    system: PinwheelSystem, base: int
) -> dict[object, list[tuple[int, int]]]:
    """Allocate residue classes, 2-splitting every free class per level."""
    demands_pure: dict[int, list[PinwheelTask]] = {}
    demands_tri: dict[int, list[PinwheelTask]] = {}
    max_level = 0
    for task in system.tasks:
        level, tri = _classify(task.b, base)
        target = demands_tri if tri else demands_pure
        target.setdefault(level, []).append(task)
        max_level = max(max_level, level)

    pool_pure = [Node(off, base, False) for off in range(base)]
    pool_tri: list[Node] = []
    assignments: dict[object, list[tuple[int, int]]] = {}

    def take(pool: list[Node], tasks: list[PinwheelTask], kind: str) -> None:
        for task in tasks:
            if len(pool) < task.a:
                raise SchedulingError(
                    f"double reduction (base {base}): {kind} pool exhausted "
                    f"for task {task.ident!r} (needs {task.a}, "
                    f"has {len(pool)})"
                )
            taken = [pool.pop() for _ in range(task.a)]
            assignments[task.ident] = [
                (node.offset, node.modulus) for node in taken
            ]

    for level in range(max_level + 1):
        take(pool_pure, demands_pure.get(level, []), "pure")
        tri_need = sum(t.a for t in demands_tri.get(level, []))
        shortfall = tri_need - len(pool_tri)
        if shortfall > 0:
            conversions = -(-shortfall // 3)
            if conversions > len(pool_pure):
                raise SchedulingError(
                    f"double reduction (base {base}): cannot convert "
                    f"{conversions} pure nodes at level {level} "
                    f"(only {len(pool_pure)} free)"
                )
            for _ in range(conversions):
                pool_tri.extend(pool_pure.pop().split(3))
        take(pool_tri, demands_tri.get(level, []), "tri")
        if level < max_level:
            pool_pure = [
                child for node in pool_pure for child in node.split(2)
            ]
            pool_tri = [
                child for node in pool_tri for child in node.split(2)
            ]
    return assignments


def fraction_ranked_bases(system: PinwheelSystem) -> list[int]:
    """Rank candidate bases by summing each specialized task's density."""
    ranked = []
    for candidate in candidate_bases(t.b for t in system.tasks):
        try:
            density = specialize_double(system, candidate).density
        except SpecificationError:
            # Some window shrank below its requirement at this base.
            continue
        if density <= 1:
            ranked.append((density, candidate))
    ranked.sort()
    return [candidate for _, candidate in ranked]
