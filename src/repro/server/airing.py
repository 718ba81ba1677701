"""The airing timeline: broadcast programs spliced end to end.

An online broadcast server never airs just one program - every accepted
mutation re-solves and splices a successor program in at a data-cycle
boundary.  :class:`AirSchedule` is the resulting timeline: an immutable
sequence of :class:`Segment` records (program + absolute start slot),
where slot ``t`` airs the content at ``segment.phase(t)`` of the
segment covering ``t``.  Splicing at an outgoing *data-cycle* boundary
means the outgoing program has just completed a whole number of content
cycles, so no client mid-retrieval loses blocks it was promised by
rotation.  The incoming program may come on air *phase-rotated*
(``Segment.phase_offset``): a cyclic program has no distinguished
origin - every design guarantee holds from every start phase - so the
splice search is free to rotate the incoming cycle until its early
occurrences dovetail with the outgoing tail.

The schedule is also the retrieval oracle for clients that live through
splices: :meth:`retrieve` (distinct-block IDA reads) and
:meth:`retrieve_versioned` (version-consistent temporal reads) hand
their segments to the one scalar walker of :mod:`repro.sim.client`
(a static program is a timeline of one segment), which crosses segment
boundaries transparently.  Cross-segment rules:

* **fault decisions are keyed on absolute slots** - the channel is one
  physical medium; a splice does not reshuffle its loss process;
* **dispersal continuity**: held blocks survive a boundary whenever the
  file's IDA level ``m`` is unchanged - a fault-budget bump only grows
  the transmission set ``n_i = m + r``, and any ``m`` distinct blocks
  of the same dispersal still reconstruct; only a genuine re-dispersal
  (different ``m``) restarts collection, counted in ``torn_discards``,
  judged at the first *heard* service of each later segment;
* **version clocks are wall clocks**: a version boundary falls at every
  absolute multiple of the segment's update period, so staleness ages
  carry across the switch un-reset (temporal continuity);
* a file absent from some segment simply contributes no occurrences
  there - the walker waits through to a segment that airs it (or the
  horizon expires).

Everything is deterministic, so the server can *re-walk* an in-flight
retrieval after a splice lands and obtain its revised outcome - the
mechanism behind live completion-event rescheduling.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram, SlotContent
from repro.sim.client import _FOREVER, _walk_services, listen_horizon
from repro.sim.faults import FaultModel
from repro.rtdb.updates import versioned_listen_horizon


@dataclass(frozen=True)
class Segment:
    """One program's tenure on the air, from ``start`` (absolute slots).

    ``update_periods`` carries the segment's per-item version clocks
    (temporal scenarios only); ``dispersal`` the per-file IDA level
    ``m`` (NOT the rotation count ``n_i = m + r`` the program airs -
    blocks collected under different fault budgets of the *same*
    dispersal still reconstruct together); ``fingerprint`` and
    ``label`` are provenance for the as-run log - the design
    fingerprint ties an aired segment back to the solve-cache entry
    that produced it.
    """

    start: int
    program: BroadcastProgram
    fingerprint: str = ""
    update_periods: Mapping[str, int] | None = None
    dispersal: Mapping[str, int] | None = None
    phase_offset: int = 0
    label: str = ""

    def dispersal_of(self, file: str) -> int | None:
        """The file's IDA level ``m`` here, or ``None`` when unknown."""
        if self.dispersal is None:
            return None
        return self.dispersal.get(file)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise SimulationError(
                f"segment start must be >= 0: {self.start}"
            )
        if not 0 <= self.phase_offset < self.program.data_cycle_length:
            raise SimulationError(
                f"phase offset must lie within the program's data "
                f"cycle [0, {self.program.data_cycle_length}): "
                f"{self.phase_offset}"
            )

    def phase(self, t: int) -> int:
        """The program phase airing at absolute slot ``t``."""
        return t - self.start + self.phase_offset

    def absolute(self, phase: int) -> int:
        """The absolute slot at which program ``phase`` airs."""
        return self.start - self.phase_offset + phase

    def period(self, file: str) -> int:
        """The file's update period in this segment (temporal only)."""
        if self.update_periods is None or file not in self.update_periods:
            raise SimulationError(
                f"segment at slot {self.start} has no update period "
                f"for {file!r}"
            )
        return self.update_periods[file]


def _check_splice(earlier: Segment, later: Segment) -> None:
    """Raise unless ``later`` may follow ``earlier``: strictly later,
    on a data-cycle boundary of the outgoing program."""
    if later.start <= earlier.start:
        raise SimulationError(
            f"segment starts must be strictly increasing: "
            f"{earlier.start} then {later.start}"
        )
    cycle = earlier.program.data_cycle_length
    if (later.start - earlier.start) % cycle != 0:
        raise SimulationError(
            f"splice at slot {later.start} is not on a "
            f"data-cycle boundary of the outgoing program "
            f"(starts {earlier.start}, cycle {cycle} slots)"
        )


def _row(stop: int, segment: Segment) -> tuple:
    """``segment``'s row of the scalar walker, airing until ``stop``."""
    return (
        stop, segment.program, segment.absolute(0), segment.dispersal_of,
        segment.period,
    )


@dataclass(frozen=True)
class SplicedRetrieval:
    """Outcome of a retrieval walked across an airing timeline.

    The :class:`~repro.sim.client.RetrievalResult` /
    :class:`~repro.rtdb.updates.VersionedRetrieval` essentials, plus
    ``segments_crossed`` - how many splice boundaries the walk spanned
    (0 = entirely within one program's tenure).
    """

    file: str
    completed: bool
    finish_slot: int
    latency: int | None
    segments_crossed: int
    age_at_completion: int | None = None
    torn_discards: int = 0


class AirSchedule:
    """An immutable timeline of broadcast programs spliced end to end."""

    __slots__ = ("_segments", "_starts", "_rows")

    def __init__(self, segments: Sequence[Segment]) -> None:
        if not segments:
            raise SimulationError(
                "an air schedule needs at least one segment"
            )
        for earlier, later in zip(segments, segments[1:]):
            _check_splice(earlier, later)
        self._segments = tuple(segments)
        self._starts = tuple(segment.start for segment in segments)
        # The scalar walker's rows (see repro.sim.client._walk_services).
        self._rows = tuple(
            _row(stop, s)
            for stop, s in zip(self._starts[1:] + (_FOREVER,), segments)
        )

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The timeline's segments, in airing order."""
        return self._segments

    @property
    def on_air(self) -> Segment:
        """The newest segment (the program currently committed last)."""
        return self._segments[-1]

    @property
    def splice_slots(self) -> tuple[int, ...]:
        """Absolute slots at which a successor program took over."""
        return self._starts[1:]

    def epoch_of(self, t: int) -> int:
        """The index of the segment covering absolute slot ``t``."""
        if t < self._starts[0]:
            raise SimulationError(
                f"slot {t} precedes the airing timeline (first segment "
                f"starts at slot {self._starts[0]})"
            )
        return bisect_right(self._starts, t) - 1

    def segment_at(self, t: int) -> Segment:
        """The segment covering absolute slot ``t``."""
        return self._segments[self.epoch_of(t)]

    def content(self, t: int) -> SlotContent | None:
        """What actually airs at absolute slot ``t`` (None = idle)."""
        segment = self.segment_at(t)
        return segment.program.index.content(segment.phase(t))

    def spliced(self, segment: Segment) -> "AirSchedule":
        """A new timeline with ``segment`` appended at its start slot.

        Validates the splice invariant (strictly later, on an outgoing
        data-cycle boundary) for the one new pair: the receiver's pairs
        were validated when it was built.  The receiver is unchanged,
        so a rejected candidate costs nothing, and an accepted one
        reuses every row but the outgoing segment's, whose stop it sets.
        """
        outgoing = self._segments[-1]
        _check_splice(outgoing, segment)
        spliced = AirSchedule.__new__(AirSchedule)
        spliced._segments = self._segments + (segment,)
        spliced._starts = self._starts + (segment.start,)
        spliced._rows = self._rows[:-1] + (
            _row(segment.start, outgoing), _row(_FOREVER, segment),
        )
        return spliced

    # ------------------------------------------------------------------
    # Retrieval across segments
    # ------------------------------------------------------------------

    def _home(self, file: str, start: int, first: int) -> Segment:
        """The first segment from epoch ``first`` (the one covering
        ``start``) onward that airs ``file``."""
        for epoch in range(first, len(self._segments)):
            if file in self._segments[epoch].program.files:
                return self._segments[epoch]
        raise SimulationError(
            f"file {file!r} is not broadcast anywhere on the "
            f"timeline from slot {start}"
        )

    def retrieve(
        self,
        file: str,
        m_needed: int,
        *,
        start: int,
        faults: FaultModel | None = None,
        max_slots: int | None = None,
    ) -> SplicedRetrieval:
        """Collect ``m_needed`` distinct blocks of ``file`` from ``start``.

        The cross-segment analogue of :func:`repro.sim.client.retrieve`
        (IDA reads: any ``m`` distinct blocks suffice).  Held blocks
        survive a splice unless the file was re-dispersed at a
        different IDA level ``m``, in which case collection restarts
        and the discarded blocks are counted.  Raises
        :class:`~repro.errors.SimulationError` when no segment from
        ``start`` onward ever airs the file.
        """
        return self._retrieval(
            file, m_needed, start, faults, max_slots, versioned=False
        )

    def retrieve_versioned(
        self,
        file: str,
        m_needed: int,
        *,
        start: int,
        faults: FaultModel | None = None,
        max_slots: int | None = None,
    ) -> SplicedRetrieval:
        """Collect ``m_needed`` distinct blocks *of one version*.

        The cross-segment analogue of
        :func:`repro.rtdb.updates.retrieve_versioned`.  Version clocks
        are wall clocks: version boundaries fall at absolute multiples
        of the segment's update period, so a splice neither resets an
        item's age nor tears a read by itself - only a genuine version
        boundary (or a re-dispersal) discards held blocks.
        """
        return self._retrieval(
            file, m_needed, start, faults, max_slots, versioned=True
        )

    def _retrieval(
        self,
        file: str,
        m_needed: int,
        start: int,
        faults: FaultModel | None,
        max_slots: int | None,
        *,
        versioned: bool,
    ) -> SplicedRetrieval:
        """Walk from ``start`` with the one scalar walker, over the
        horizon of the first segment that airs ``file``; a walk that
        runs out is busy through the horizon's last slot."""
        first = self.epoch_of(start)
        home = self._home(file, start, first)
        if versioned:
            horizon = versioned_listen_horizon(
                home.program, file, m_needed, home.period(file),
                max_slots=max_slots,
            )
        else:
            horizon = listen_horizon(home.program, m_needed, max_slots)
        finish, _, _, write, discards = _walk_services(
            self._rows[first:], file, m_needed, start, horizon, faults,
            versioned=versioned,
        )
        completed = finish is not None
        last = finish if completed else start + horizon - 1
        # Positional: keywords cost a fifth of building the result.
        return SplicedRetrieval(
            file,
            completed,
            last,
            last - start + 1 if completed else None,
            bisect_right(self._starts, last, first) - 1 - first,
            last - write if completed and versioned else None,
            discards,
        )

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:
        splices = ", ".join(str(slot) for slot in self.splice_slots)
        return (
            f"AirSchedule({len(self._segments)} segments"
            + (f", splices at [{splices}]" if splices else "")
            + ")"
        )
