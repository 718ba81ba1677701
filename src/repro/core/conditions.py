"""The condition language of Section 4.1.

The paper defines two kinds of conditions on a broadcast program ``P``:

* the *pinwheel task condition* ``pc(i, a, b)``: the service sequence
  ``P:i`` contains at least ``a`` out of every ``b`` consecutive slots;
* the *broadcast file condition* ``bc(i, m, d)`` for a file of ``m`` blocks
  with latency vector ``d = [d(0), ..., d(r)]``: ``P:i`` contains at least
  ``m + j`` out of every ``d(j)`` consecutive slots, for every ``j``.

Equation 3 of the paper states the fundamental expansion::

    bc(i, m, d)  ==  AND_j  pc(i, m + j, d(j))

which :meth:`BroadcastCondition.expand` implements.

A *conjunct* is a set of conditions that must hold simultaneously.  A
conjunct of pinwheel conditions is *nice* (Definition 1) when no task
carries more than one condition - the form the Chan & Chin scheduler needs.
Nice conjuncts produced by rules R4/R5 introduce *virtual* tasks that are
``map``-ped back onto the original file; :class:`NiceConjunct` carries that
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping

from repro.errors import SpecificationError
from repro.core.task import PinwheelSystem, PinwheelTask

ConditionKey = Hashable


def _positive_int(value: object) -> bool:
    """True for an ``int`` >= 1 (a ``bool`` is not a slot count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True, slots=True)
class PinwheelCondition:
    """``pc(task, a, b)``: at least ``a`` service slots in every ``b``."""

    task: ConditionKey
    a: int
    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise SpecificationError(
                f"pc parameters must be integers: a={self.a!r}, b={self.b!r}"
            )
        if self.a < 1:
            raise SpecificationError(f"pc requirement a={self.a} must be >= 1")
        if self.b < self.a:
            raise SpecificationError(
                f"pc({self.task!r}, {self.a}, {self.b}) is unsatisfiable: "
                f"window smaller than requirement"
            )

    @property
    def density(self) -> Fraction:
        """Exact density ``a / b``."""
        return Fraction(self.a, self.b)

    def as_task(self) -> PinwheelTask:
        """The pinwheel task whose scheduling satisfies this condition."""
        return PinwheelTask(self.task, self.a, self.b)

    def __str__(self) -> str:
        return f"pc({self.task}, {self.a}, {self.b})"


@dataclass(frozen=True, slots=True)
class BroadcastCondition:
    """``bc(file, m, d)``: the generalized fault-tolerant file condition.

    ``d[j]`` is the largest tolerable latency (in slots) when ``j`` faults
    occur; under ``j`` faults the client needs ``m + j`` distinct block
    slots within ``d[j]``.  The vector length minus one is the maximum
    number of tolerated faults ``r``.
    """

    file: ConditionKey
    m: int
    d: tuple[int, ...]

    def __init__(
        self, file: ConditionKey, m: int, d: Iterable[int]
    ) -> None:
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", tuple(d))
        self._validate()

    def _validate(self) -> None:
        if not _positive_int(self.m):
            raise SpecificationError(
                f"bc({self.file!r}): size m={self.m!r} must be a positive int"
            )
        if not self.d:
            raise SpecificationError(
                f"bc({self.file!r}): latency vector must be non-empty"
            )
        for j, latency in enumerate(self.d):
            if not _positive_int(latency):
                raise SpecificationError(
                    f"bc({self.file!r}): d({j})={latency!r} must be a "
                    f"positive int"
                )
            if latency < self.m + j:
                raise SpecificationError(
                    f"bc({self.file!r}): d({j})={latency} cannot accommodate "
                    f"{self.m + j} block slots"
                )

    @property
    def r(self) -> int:
        """Maximum number of tolerated faults (``len(d) - 1``)."""
        return len(self.d) - 1

    def expand(self) -> tuple[PinwheelCondition, ...]:
        """Equation 3: ``bc(i, m, d) == AND_j pc(i, m + j, d(j))``."""
        return tuple(
            PinwheelCondition(self.file, self.m + j, latency)
            for j, latency in enumerate(self.d)
        )

    @property
    def density_lower_bound(self) -> Fraction:
        """``max_j (m + j) / d(j)`` - no implying nice conjunct can be
        less dense than this (Section 4.2)."""
        return max(
            Fraction(self.m + j, latency) for j, latency in enumerate(self.d)
        )

    def __str__(self) -> str:
        vector = ", ".join(str(x) for x in self.d)
        return f"bc({self.file}, {self.m}, [{vector}])"


def pc(task: ConditionKey, a: int, b: int) -> PinwheelCondition:
    """Shorthand constructor matching the paper's ``pc(i, a, b)``."""
    return PinwheelCondition(task, a, b)


def bc(file: ConditionKey, m: int, d: Iterable[int]) -> BroadcastCondition:
    """Shorthand constructor matching the paper's ``bc(i, m, d)``."""
    return BroadcastCondition(file, m, d)


def virtual_key(file: ConditionKey, index: int) -> tuple:
    """The identity of the ``index``-th virtual helper task for ``file``.

    Rules R4/R5 and TR2 introduce tasks that are scheduled separately but
    broadcast blocks of the same file (the paper's ``map(i', i)``).  We keep
    them distinguishable - and reliably mappable back - by using structured
    tuples rather than string mangling.
    """
    return ("virtual", file, index)


@dataclass(frozen=True)
class NiceConjunct:
    """A nice conjunct of pinwheel conditions plus its task-to-file map.

    Attributes
    ----------
    conditions:
        One :class:`PinwheelCondition` per (possibly virtual) task.
    mapping:
        Maps every task key appearing in ``conditions`` to the file it
        broadcasts for.  Real tasks map to themselves.
    provenance:
        Human-readable note on which transformation produced the conjunct
        (e.g. ``"TR1"``; useful in benches reproducing Examples 2-6).
    """

    conditions: tuple[PinwheelCondition, ...]
    mapping: Mapping[ConditionKey, ConditionKey] = field(default_factory=dict)
    provenance: str = ""

    def __post_init__(self) -> None:
        keys = [cond.task for cond in self.conditions]
        if len(set(keys)) != len(keys):
            duplicates = {k for k in keys if keys.count(k) > 1}
            raise SpecificationError(
                f"conjunct is not nice: duplicated task keys {duplicates!r}"
            )
        mapping = dict(self.mapping)
        for key in keys:
            mapping.setdefault(key, key)
        object.__setattr__(self, "mapping", mapping)

    @property
    def density(self) -> Fraction:
        """Total density of the conjunct (the Chan & Chin test quantity)."""
        return sum((c.density for c in self.conditions), Fraction(0))

    def file_of(self, task: ConditionKey) -> ConditionKey:
        """The file a (possibly virtual) task broadcasts for."""
        return self.mapping[task]

    def as_system(self) -> PinwheelSystem:
        """The pinwheel task system to hand to a scheduler."""
        return PinwheelSystem(c.as_task() for c in self.conditions)

    def merge(self, other: "NiceConjunct") -> "NiceConjunct":
        """Union of two nice conjuncts over disjoint task-key sets."""
        mine = {c.task for c in self.conditions}
        theirs = {c.task for c in other.conditions}
        overlap = mine & theirs
        if overlap:
            raise SpecificationError(
                f"cannot merge conjuncts sharing task keys {overlap!r}"
            )
        provenance = "; ".join(p for p in (self.provenance, other.provenance) if p)
        return NiceConjunct(
            self.conditions + other.conditions,
            {**self.mapping, **other.mapping},
            provenance,
        )

    def __iter__(self) -> Iterator[PinwheelCondition]:
        return iter(self.conditions)

    def __len__(self) -> int:
        return len(self.conditions)

    def __str__(self) -> str:
        parts = []
        for cond in self.conditions:
            target = self.mapping[cond.task]
            if target != cond.task:
                parts.append(f"{cond} ^ map({cond.task}, {target})")
            else:
                parts.append(str(cond))
        return " ^ ".join(parts)
