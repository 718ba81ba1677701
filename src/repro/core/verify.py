"""Exact verification of schedules against pinwheel / broadcast conditions.

Schedulers in this library never return an unverified schedule: whatever
clever reduction produced a candidate cycle, the final word is an exact
window check performed here.  Each ``pc`` condition asks one question of
:meth:`repro.core.schedule.Schedule.min_window`: the earliest sparsest
window of its length, which costs ``O(n log n)`` for ``n`` services of the
task per cycle.  That start is the witness a :class:`Violation` reports.

Two entry points are provided: :func:`check_schedule` returns a structured
:class:`VerificationReport` (used by tests and benches to show witnesses),
and :func:`verify_schedule` raises :class:`repro.errors.VerificationError`
on the first violation (used inside schedulers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import VerificationError
from repro.core.conditions import (
    BroadcastCondition,
    NiceConjunct,
    PinwheelCondition,
)
from repro.core.schedule import Schedule

Condition = PinwheelCondition | BroadcastCondition


@dataclass(frozen=True, slots=True)
class Violation:
    """A single violated window: the condition, window start, and count."""

    condition: Condition
    window_start: int
    window_length: int
    required: int
    observed: int

    def __str__(self) -> str:
        return (
            f"{self.condition} violated on window "
            f"[{self.window_start}, {self.window_start + self.window_length})"
            f": needed {self.required}, saw {self.observed}"
        )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a schedule against a set of conditions."""

    checked: tuple[Condition, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        """True when every condition held on every window."""
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"OK ({len(self.checked)} conditions verified)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def satisfies_pc(schedule: Schedule, condition: PinwheelCondition) -> bool:
    """Whether the schedule satisfies one pinwheel condition exactly."""
    return schedule.min_window(condition.task, condition.b)[1] >= condition.a


def satisfies_bc(schedule: Schedule, condition: BroadcastCondition) -> bool:
    """Whether the schedule satisfies one broadcast-file condition.

    Uses the Equation 3 expansion: every ``pc(i, m + j, d(j))`` must hold.
    """
    return all(satisfies_pc(schedule, sub) for sub in condition.expand())


def _iter_pc(
    conditions: Iterable[Condition],
) -> Iterable[tuple[Condition, PinwheelCondition]]:
    """Yield ``(original, pc)`` pairs, expanding bc conditions via Eq. 3."""
    for condition in conditions:
        if isinstance(condition, BroadcastCondition):
            for sub in condition.expand():
                yield condition, sub
        elif isinstance(condition, PinwheelCondition):
            yield condition, condition
        else:
            raise TypeError(f"unsupported condition type: {condition!r}")


def check_schedule(
    schedule: Schedule,
    conditions: Iterable[Condition],
    *,
    max_violations: int | None = None,
) -> VerificationReport:
    """Check every condition, returning a structured report.

    Parameters
    ----------
    schedule:
        The cyclic schedule (or broadcast program projected onto file keys).
    conditions:
        ``pc`` and/or ``bc`` conditions; ``bc`` is expanded per Equation 3.
    max_violations:
        Stop collecting after this many violations (``None`` = collect all).
    """
    checked: list[Condition] = []
    violations: list[Violation] = []
    for original, sub in _iter_pc(conditions):
        if not checked or checked[-1] is not original:
            checked.append(original)
        start, count = schedule.min_window(sub.task, sub.b)
        if count < sub.a:
            violations.append(
                Violation(original, start, sub.b, sub.a, count)
            )
            if max_violations is not None and len(violations) >= max_violations:
                break
    return VerificationReport(tuple(checked), tuple(violations))


def verify_schedule(
    schedule: Schedule, conditions: Iterable[Condition]
) -> None:
    """Raise :class:`VerificationError` if any condition is violated."""
    report = check_schedule(schedule, conditions, max_violations=1)
    if not report.ok:
        raise VerificationError(str(report.violations[0]))


def verify_nice_conjunct(schedule: Schedule, conjunct: NiceConjunct) -> None:
    """Verify a schedule over (virtual) task keys against a nice conjunct."""
    verify_schedule(schedule, conjunct.conditions)


def project_to_files(schedule: Schedule, conjunct: NiceConjunct) -> Schedule:
    """Fold virtual helper tasks back onto their files (``map(i', i)``).

    The returned schedule's owners are file keys, suitable for checking the
    original ``bc`` conditions or for building a broadcast program.
    """
    return schedule.relabel(conjunct.file_of)
