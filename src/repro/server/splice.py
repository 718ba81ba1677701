"""The splice-safety predicate: when may a new program take the air?

Splicing a re-solved program into a live broadcast is safe only if no
client mid-retrieval is pushed past its budget by the switch.  This
module makes that an explicit, testable predicate over the occurrence
indexes of the outgoing and incoming programs - the server never
commits a splice the predicate has not blessed.

The key reduction is **critical-start enumeration**.  A retrieval with
budget ``D`` can only span a boundary at slot ``B`` if it started in
``[B - D + 1, B - 1]`` (earlier starts must already have finished to
meet their budget; later starts run purely on the incoming program,
whose own design guarantees them).  Within the gap between two
consecutive outgoing services of the file, every start hears the
identical service stream, so the *earliest* start in each gap is the
worst case: its deadline is tightest for the same finish slot.  The
predicate therefore walks only ``O(occurrences-in-window)`` candidate
starts per file - exact, not a heuristic - and each candidate is
checked by the same cross-segment walker
(:meth:`~repro.server.airing.AirSchedule.retrieve`) live sessions use,
so the check and the experienced behaviour cannot drift apart.

The enumeration is exact for *fault-free* spanning retrievals - the
contract the paper's designs promise per fault level is checked here at
level 0, the level the splice itself must never degrade.  Stochastic
loss on top is the fault model's business, not the splice's, and shows
up in the pre/post-splice metrics instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram
from repro.server.airing import AirSchedule, Segment

#: Phase rotations of the incoming cycle tried at each boundary (all of
#: them when the cycle is shorter).
MAX_OFFSETS = 64


@dataclass(frozen=True)
class SpliceRequirement:
    """One file's in-flight contract a splice must keep.

    ``m_needed`` distinct blocks within ``budget_slots`` of any start;
    ``versioned`` additionally requires the completed value's age to
    fit the same budget (temporal items' freshness bound equals their
    latency budget in slots).
    """

    file: str
    m_needed: int
    budget_slots: int
    versioned: bool = False

    def __post_init__(self) -> None:
        if self.m_needed < 1:
            raise SimulationError(
                f"splice requirement for {self.file!r}: m_needed must "
                f"be >= 1: {self.m_needed}"
            )
        if self.budget_slots < 1:
            raise SimulationError(
                f"splice requirement for {self.file!r}: budget must "
                f"be >= 1 slot: {self.budget_slots}"
            )


@dataclass(frozen=True)
class SpliceViolation:
    """One spanning retrieval a candidate splice would break."""

    file: str
    start: int
    budget_slots: int
    latency: int | None
    age_at_completion: int | None = None

    def describe(self) -> str:
        """One-line human summary."""
        outcome = (
            "aborts"
            if self.latency is None
            else f"takes {self.latency} slots"
        )
        extra = (
            f" (age {self.age_at_completion})"
            if self.age_at_completion is not None
            else ""
        )
        return (
            f"{self.file} from slot {self.start} {outcome}{extra}, "
            f"budget {self.budget_slots}"
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict for the as-run log."""
        return {
            "file": self.file,
            "start": self.start,
            "budget_slots": self.budget_slots,
            "latency": self.latency,
            "age_at_completion": self.age_at_completion,
        }


def critical_starts(
    schedule: AirSchedule, file: str, budget_slots: int, splice_slot: int
) -> list[int]:
    """The exact worst-case start slots of retrievals spanning a splice.

    One representative per service gap of the outgoing program inside
    ``[splice_slot - budget_slots + 1, splice_slot - 1]`` (clamped to
    the outgoing segment): the window's first slot, plus the slot after
    each outgoing service of ``file`` in the window.  Every other
    spanning start hears the same stream as its gap's representative
    with a strictly looser deadline.
    """
    outgoing = schedule.segment_at(splice_slot - 1)
    lo = max(splice_slot - budget_slots + 1, outgoing.start)
    if lo >= splice_slot:
        # A budget this tight cannot span the boundary: every start at
        # or after the splice runs purely on the incoming program and
        # is judged by the incoming epoch's own contracts instead.
        return []
    starts = [lo]
    if file in outgoing.program.files:
        for slot, _ in outgoing.program.index.occurrences_from(
            file, outgoing.phase(lo)
        ):
            abs_slot = outgoing.absolute(slot)
            if abs_slot >= splice_slot - 1:
                break
            starts.append(abs_slot + 1)
    return starts


def check_splice(
    schedule: AirSchedule,
    splice_slot: int,
    requirements: Iterable[SpliceRequirement],
) -> tuple[SpliceViolation, ...]:
    """Every in-flight contract a splice at ``splice_slot`` would break.

    ``schedule`` is the *candidate* timeline - it already contains the
    incoming segment starting at ``splice_slot`` (build one cheaply
    with :meth:`~repro.server.airing.AirSchedule.spliced`; rejecting it
    discards nothing).  An empty result means the splice is safe: every
    fault-free retrieval spanning the boundary still meets its slot -
    and, for versioned items, staleness - budget.
    """
    if splice_slot not in schedule.splice_slots:
        raise SimulationError(
            f"slot {splice_slot} is not a splice point of the "
            f"candidate timeline (splices: {list(schedule.splice_slots)})"
        )
    violations: list[SpliceViolation] = []
    for requirement in requirements:
        for start in critical_starts(
            schedule, requirement.file, requirement.budget_slots,
            splice_slot,
        ):
            if requirement.versioned:
                outcome = schedule.retrieve_versioned(
                    requirement.file,
                    requirement.m_needed,
                    start=start,
                    max_slots=requirement.budget_slots,
                )
                fresh = (
                    outcome.age_at_completion is not None
                    and outcome.age_at_completion
                    <= requirement.budget_slots
                )
                ok = outcome.completed and fresh
            else:
                outcome = schedule.retrieve(
                    requirement.file,
                    requirement.m_needed,
                    start=start,
                    max_slots=requirement.budget_slots,
                )
                ok = outcome.completed
            if not ok:
                violations.append(
                    SpliceViolation(
                        file=requirement.file,
                        start=start,
                        budget_slots=requirement.budget_slots,
                        latency=outcome.latency,
                        age_at_completion=outcome.age_at_completion,
                    )
                )
    return tuple(violations)


def splice_is_safe(
    schedule: AirSchedule,
    splice_slot: int,
    requirements: Iterable[SpliceRequirement],
) -> bool:
    """Whether a splice at ``splice_slot`` keeps every contract."""
    return not check_splice(schedule, splice_slot, requirements)


def find_splice_slot(
    schedule: AirSchedule,
    incoming: BroadcastProgram,
    *,
    not_before: int,
    requirements: Iterable[SpliceRequirement],
    fingerprint: str = "",
    update_periods: Mapping[str, int] | None = None,
    dispersal: Mapping[str, int] | None = None,
    label: str = "",
    max_boundaries: int = 64,
) -> tuple[AirSchedule, int, list[tuple[int, tuple[SpliceViolation, ...]]]]:
    """The earliest safe data-cycle boundary to splice ``incoming`` in.

    Scans outgoing data-cycle boundaries at or after ``not_before``
    (at most ``max_boundaries`` of them), and at each boundary up to
    :data:`MAX_OFFSETS` phase rotations of the incoming cycle - a cyclic
    program has no distinguished origin, so every rotation keeps the
    incoming design's own guarantees while shifting which occurrences
    land right after the boundary.  Returns the committed candidate
    timeline, its splice slot, and the rejected attempts ``[(slot,
    violations), ...]`` (each boundary's unrotated rejection) for the
    as-run log; the chosen rotation is on the candidate's last
    segment (``candidate.on_air.phase_offset``).  Raises
    :class:`~repro.errors.SimulationError` when nothing scanned is
    safe - the mutation is refused rather than aired unsafely.
    """
    requirements = tuple(requirements)
    outgoing = schedule.on_air
    cycle = outgoing.program.data_cycle_length
    gap = max(not_before - outgoing.start, 1)
    boundary = outgoing.start + -(-gap // cycle) * cycle
    offsets = range(min(incoming.data_cycle_length, MAX_OFFSETS))
    attempts: list[tuple[int, tuple[SpliceViolation, ...]]] = []
    for _ in range(max_boundaries):
        for offset in offsets:
            candidate = schedule.spliced(
                Segment(
                    start=boundary,
                    program=incoming,
                    fingerprint=fingerprint,
                    update_periods=update_periods,
                    dispersal=dispersal,
                    phase_offset=offset,
                    label=label,
                )
            )
            violations = check_splice(candidate, boundary, requirements)
            if not violations:
                return candidate, boundary, attempts
            if offset == 0:
                attempts.append((boundary, violations))
        boundary += cycle
    raise SimulationError(
        f"no safe splice boundary within {max_boundaries} data cycles "
        f"of slot {not_before} (cycle {cycle} slots, up to "
        f"{len(offsets)} phase rotations each); first rejection: "
        f"{attempts[0][1][0].describe()}"
    )
