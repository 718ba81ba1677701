"""Worst-case delay analysis: Lemmas 1-2 and the Figure 7 table.

The paper's central quantitative claim is adversarial: if retrieving a
file costs ``L`` slots fault-free, how much longer can ``r`` block errors
make it?

* **Lemma 1** (no IDA, flat program of period ``Pi``): at most ``r * Pi``
  extra - each lost block must be awaited for a full period.
* **Lemma 2** (AIDA, max inter-block gap ``Delta``): at most
  ``r * Delta`` extra - any next block of the file substitutes.

The exact worst case needs no search: rotation is the certificate.
Service ``c`` of a file (from slot 0) carries block ``c mod n``, so an
adversary with ``j`` kills stops a client only by wiping out whole
blocks, and ``K`` - the services after which it cannot - is a closed
form.  ``K = q*n + s`` services air ``s`` blocks ``q + 1`` times and
the rest ``q`` times.  **With IDA** the client needs ``need = max(1, m)``
distinct blocks, so ``t = n - need + 1`` must go, at a cost of
``t*q + max(0, s - need + 1)`` kills; the first ``K`` costing more than
``j`` is, with ``(q, x) = divmod(j + 1, t)``, ``q*n`` if ``x == 0``,
else ``q*n + need - 1 + x``.  **Without IDA** it needs blocks
``0 .. m-1``; from block ``c`` the last arrives at service
``K0 = 1 + max((b - c) mod n)``, and each kill of it costs a rotation:
``K = K0 + j*n``.  A client first hearing occurrence ``e`` finishes at
occurrence ``e + K - 1``; delays and latencies are slot differences,
maximized over slot 0 and the slot after each service, where they can
change.  A client of several channels commits to the one it would
finish on first without faults (lowest index on ties,
:func:`repro.sim.client.best_channel`'s rule), where every carrier but
the one it is tuned to starts ``tuning_cost`` slots late;
:func:`chosen_channel_delay` walks those phases of every carrier over
one common period, tuned to each carrier in turn, and one carrier is
the single-channel case.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram


def lemma1_bound(period: int, errors: int) -> int:
    """Lemma 1 upper bound: ``r * Pi`` extra slots without IDA."""
    return errors * period


def lemma2_bound(delta: int, errors: int) -> int:
    """Lemma 2 upper bound: ``r * Delta`` extra slots with AIDA."""
    return errors * delta


class _Rotation:
    """One file's services on one program, as occurrence arithmetic.

    Occurrence ``i`` is the ``i``-th service from slot 0; it airs at
    :meth:`slot` and carries block ``i mod n``.  ``slots`` holds one
    ``period`` of occurrence slots: a schedule cycle with IDA, and
    without it as many cycles as the block heard first takes to repeat.
    """

    __slots__ = ("slots", "period", "width", "needed", "distinct")

    def __init__(
        self,
        program: BroadcastProgram,
        file: str,
        m_needed: int,
        need_distinct: bool,
    ) -> None:
        if file not in program.files:
            raise SimulationError(f"file {file!r} is not broadcast")
        width = program.block_count(file)
        # With IDA a 0-block file is done at its first block.
        needed = max(1, m_needed) if need_distinct else m_needed
        if not 1 <= needed <= width:
            raise SimulationError(
                f"retrieval of {file!r} cannot progress: no useful block "
                f"in a full data cycle (m_needed={m_needed} too large?)"
            )
        schedule = program.schedule
        served = schedule.service_slots(file)
        cycles = 1 if need_distinct else width // math.gcd(width, len(served))
        period = schedule.cycle_length
        self.slots = tuple(
            slot + cycle * period for cycle in range(cycles) for slot in served
        )
        self.period = period * cycles
        self.width = width
        self.needed = needed
        self.distinct = need_distinct

    def slot(self, occurrence: int) -> int:
        """The slot occurrence ``occurrence`` airs at (any integer)."""
        cycles, within = divmod(occurrence, len(self.slots))
        return cycles * self.period + self.slots[within]

    def first_at(self, t: int) -> int:
        """The first occurrence at a slot ``>= t``."""
        cycles, within = divmod(t, self.period)
        return cycles * len(self.slots) + bisect_left(self.slots, within)

    def finish(self, occurrence: int, kills: int) -> int:
        """The slot a client that first hears ``occurrence`` is done at,
        whatever ``kills`` losses the adversary places."""
        width, needed = self.width, self.needed
        if self.distinct:
            rotations, extra = divmod(kills + 1, width - needed + 1)
            services = rotations * width + (needed - 1 + extra if extra else 0)
        else:
            first = occurrence % width
            # Block first - 1 comes last when first is one of the needed
            # blocks 1..m-1; otherwise block m - 1 does.
            if 0 < first < needed:
                services = width
            else:
                services = (needed - 1 - first) % width + 1
            services += kills * width
        return self.slot(occurrence + services - 1)


def _critical_phases(
    rotations: Sequence[_Rotation], tuning_cost: int
) -> list[int]:
    """Slot 0 and, over one common period, the phases at which a
    carrier's service is just past: the slot after it, and
    ``tuning_cost`` slots before that for a carrier heard late.
    Between two of them no listen start crosses a service, so no finish
    and no choice of channel changes."""
    period = math.lcm(*(rotation.period for rotation in rotations))
    phases = {0}
    for rotation in rotations:
        aired = len(rotation.slots) * (period // rotation.period)
        for shift in {1, 1 - tuning_cost}:
            phases.update(
                (rotation.slot(i) + shift) % period for i in range(aired)
            )
    return sorted(phases)


def _chosen(
    rotations: Sequence[_Rotation], tuning_cost: int = 0
) -> Iterator[tuple[int, _Rotation, int, int]]:
    """``(phase, rotation, occurrence, finish)`` at each critical phase
    and tuned carrier: the carrier with the earliest fault-free finish
    (the first on ties), the first of its occurrences the client hears,
    and that finish.  Every carrier but the tuned one is heard
    ``tuning_cost`` slots late.  A client tuned to none hears them all
    late: that is the choice at cost 0 shifted in time, which a client
    tuned to the carrier it picks makes too, so only carriers are
    walked."""
    if len(rotations) == 1:
        tuning_cost = 0
    phases = _critical_phases(rotations, tuning_cost)
    for tuned in range(len(rotations)) if tuning_cost else (None,):
        # (carrier, listen offset) pairs for a client tuned to `tuned`.
        heard = [
            (rotation, 0 if index == tuned else tuning_cost)
            for index, rotation in enumerate(rotations)
        ]
        for phase in phases:
            best = None
            for rotation, offset in heard:
                occurrence = rotation.first_at(phase + offset)
                finish = rotation.finish(occurrence, 0)
                if best is None or finish < best[3]:
                    best = (phase, rotation, occurrence, finish)
            yield best


def fault_free_latency(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    *,
    phase: int = 0,
    need_distinct: bool = True,
) -> int:
    """Retrieval latency in slots with no faults, from a given phase."""
    rotation = _Rotation(program, file, m_needed, need_distinct)
    phase %= program.data_cycle_length
    return rotation.finish(rotation.first_at(phase), 0) - phase + 1


def chosen_channel_delay(
    programs: Sequence[BroadcastProgram],
    file: str,
    m_needed: int,
    errors: int,
    *,
    need_distinct: bool = True,
    tuning_cost: int = 0,
) -> int:
    """Exact worst-case added delay on the channel a client picks.

    ``programs`` are the channels carrying ``file``, in channel order.
    At every phase of one common period the client commits to the
    carrier it would finish on first without faults (the first on
    ties), hearing every carrier but the one it is tuned to
    ``tuning_cost`` slots late; the delay is that carrier's finish
    under ``errors`` adversarial losses minus its fault-free finish,
    maximized over the phases and over the carrier it is tuned to.
    One program is the single-channel worst case.
    """
    if errors < 0:
        raise SimulationError(f"errors must be >= 0: {errors}")
    if tuning_cost < 0:
        raise SimulationError(f"tuning_cost must be >= 0: {tuning_cost}")
    rotations = [
        _Rotation(program, file, m_needed, need_distinct)
        for program in programs
    ]
    if not rotations:
        raise SimulationError(f"no channel carries {file!r}")
    if errors == 0:  # by definition; the rotations above still validate
        return 0
    return max(
        rotation.finish(occurrence, errors) - finish
        for _, rotation, occurrence, finish in _chosen(
            rotations, tuning_cost
        )
    )


def worst_case_delay(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    errors: int,
    *,
    need_distinct: bool = True,
) -> int:
    """Exact worst-case added delay under ``errors`` adversarial losses.

    ``max over phases of (completion with optimal adversary -
    fault-free completion)``, in O(services per cycle).  Raises for a
    file that cannot be retrieved even without faults.
    """
    return chosen_channel_delay(
        (program,), file, m_needed, errors, need_distinct=need_distinct
    )


def worst_case_latency(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    errors: int,
    *,
    need_distinct: bool = True,
) -> int:
    """Exact worst-case *total* latency (slots) under ``errors`` losses."""
    if errors < 0:
        raise SimulationError(f"errors must be >= 0: {errors}")
    rotation = _Rotation(program, file, m_needed, need_distinct)
    return max(
        rotation.finish(occurrence, errors) - phase + 1
        for phase, rotation, occurrence, _ in _chosen((rotation,))
    )


@dataclass(frozen=True, slots=True)
class DelayTableRow:
    """One row of the Figure 7 table, plus the lemma bounds."""

    errors: int
    with_ida: int
    without_ida: int
    lemma2_bound: int
    lemma1_bound: int

    def __str__(self) -> str:
        return (
            f"{self.errors:>6} | {self.with_ida:>8} | "
            f"{self.without_ida:>11} | {self.lemma2_bound:>8} | "
            f"{self.lemma1_bound:>8}"
        )


def worst_case_delay_table(
    aida_program: BroadcastProgram,
    flat_program: BroadcastProgram,
    file_sizes: dict[str, int],
    max_errors: int,
) -> list[DelayTableRow]:
    """Regenerate the Figure 7 comparison for arbitrary programs.

    For each error count ``r`` the with-IDA column is the worst exact
    delay over all files on the AIDA program (any-``m``-distinct mode) and
    the without-IDA column the worst over files on the flat program
    (specific-blocks mode).  Bounds use each program's worst ``Delta``
    and the flat program's period.
    """
    if max_errors < 0:
        raise SimulationError(f"errors must be >= 0: {max_errors}")
    delta = max(aida_program.max_gap(f) for f in file_sizes)
    period = flat_program.broadcast_period
    rows = []
    for errors in range(max_errors + 1):
        with_ida = max(
            worst_case_delay(
                aida_program, f, m, errors, need_distinct=True
            )
            for f, m in file_sizes.items()
        )
        without_ida = max(
            worst_case_delay(
                flat_program, f, m, errors, need_distinct=False
            )
            for f, m in file_sizes.items()
        )
        rows.append(
            DelayTableRow(
                errors=errors,
                with_ida=with_ida,
                without_ida=without_ida,
                lemma2_bound=lemma2_bound(delta, errors),
                lemma1_bound=lemma1_bound(period, errors),
            )
        )
    return rows
