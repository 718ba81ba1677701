"""Client-side retrieval from a broadcast program.

A client tunes in at slot ``start`` (its *phase*), watches the program go
by, and collects blocks of its target file until it can reconstruct:

* **with IDA** (``need_distinct``): any ``m`` *distinct* dispersed blocks
  suffice (Section 2.1) - the client caches block indices and finishes at
  the ``m``-th distinct one;
* **without IDA** (``need_specific``): the file is not dispersed, so the
  client must catch *every one* of blocks ``0 .. m-1``; a lost block can
  only be replaced by the same index coming round again - the regime of
  Lemma 1.

``retrieve`` is the single engine for both, parameterized by the
requirement; the fault model decides which slots are lost.

The client is an *occurrence walker*: instead of scanning the program
slot by slot, it jumps service-to-service along the program's
precomputed occurrence index (:attr:`BroadcastProgram.index`), asking
the fault model about whole batches of candidate slots at once
(:func:`fault_batches`).  One walker, :func:`_walk_services`, owns
that loop for ``retrieve``, the versioned read and the spliced
timeline; a static program is a timeline of one segment.  The outcome
is bit-identical to the seed slot-walking loop (kept in
``tests/oracles/sim_reference.py`` as the executable spec) because fault
decisions are deterministic per ``(seed, slot)`` and slots carrying
other files never affected the outcome.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence, TYPE_CHECKING

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram
from repro.sim.faults import FaultModel, NoFaults, lost_in

if TYPE_CHECKING:  # pragma: no cover
    from repro.bdisk.multichannel import ChannelSet
    from repro.bdisk.program_index import ProgramIndex

#: Widths of the batched fault queries of an occurrence walk: the first
#: batch decides ``FAULT_BATCH_FIRST`` occurrences and each later one
#: doubles, up to ``FAULT_BATCH_MAX``.  Most retrievals finish within a
#: few occurrences, so little is decided past the finish, while long
#: walks still take O(log) batch calls.  Decisions are deterministic per
#: ``(seed, slot)``, so the widths never change an outcome.
FAULT_BATCH_FIRST = 4
FAULT_BATCH_MAX = 128

#: The clean channel's decisions.  A ``repeat`` iterator keeps no
#: position, so every walk can share this one.
_NEVER_LOST = repeat(False)


def default_horizon(program: BroadcastProgram, m_needed: int) -> int:
    """The default listening horizon: ``(m_needed + 2)`` data cycles.

    A client that has heard that many cycles without reconstructing
    gives up (the channel is effectively dark).
    """
    return (m_needed + 2) * program.data_cycle_length


def listen_horizon(
    program: BroadcastProgram, m_needed: int, max_slots: int | None
) -> int:
    """The slots a plain retrieval listens: ``max_slots`` when given,
    else :func:`default_horizon`.

    The single source of the rule shared by :func:`retrieve`,
    :func:`best_channel`, :func:`repro.sim.channel.broadcast_retrieve`,
    the caching client, the spliced timeline, the retrieval tables and
    the traffic loop - the plain twin of
    :func:`repro.rtdb.updates.versioned_listen_horizon`.
    """
    if max_slots is not None:
        return max_slots
    return default_horizon(program, m_needed)


def fault_batches(
    index: "ProgramIndex",
    file: str,
    start: int,
    end: int,
    faults: FaultModel | None,
    shift: int = 0,
) -> Iterator[tuple[list[int], list[int], Iterable[bool]]]:
    """Yield ``(slots, blocks, lost)`` batches covering the services of
    ``file`` in program slots ``[start, end)``, in slot order.

    The occurrence source of the one scalar walker,
    :func:`_walk_services`, for each segment it walks.  Slots are
    reported, and decided, as ``program_slot + shift``: a segment airs
    program slot ``s`` at absolute slot ``s + shift``.  Each batch is
    decided by one :func:`lost_in` call; widths grow geometrically from
    :data:`FAULT_BATCH_FIRST` to :data:`FAULT_BATCH_MAX`.  A walker that
    finishes stops pulling, so it decides at most about twice the
    occurrences it heard.  On the clean channel (``None`` or
    :class:`NoFaults`) nothing is decided: every batch shares one
    all-False stream.

    Raises :class:`SimulationError` when ``start < 0`` - the channel
    has no slots before slot 0.
    """
    if start < 0:
        raise SimulationError(
            f"a retrieval cannot start before slot 0: start={start}"
        )
    clean = faults is None or isinstance(faults, NoFaults)
    occ_slots, occ_blocks = index.occurrence_arrays(file)
    count = len(occ_slots)
    cycle = index.data_cycle_length
    # Pointer (base, i): the next candidate occurrence is occurrence i of
    # the cycle copy whose program slot 0 airs at slot `base`.
    quotient, within = divmod(start, cycle)
    base = quotient * cycle + shift
    end += shift
    i = bisect_left(occ_slots, within)
    width = FAULT_BATCH_FIRST
    while base < end:
        batch_slots: list[int] = []
        batch_blocks: list[int] = []
        while len(batch_slots) < width:
            if i >= count:
                base += cycle
                i = 0
                if base >= end:
                    break
                continue
            slot = base + occ_slots[i]
            if slot >= end:
                base = end
                break
            batch_slots.append(slot)
            batch_blocks.append(occ_blocks[i])
            i += 1
        if not batch_slots:
            return
        yield batch_slots, batch_blocks, (
            _NEVER_LOST if clean else lost_in(faults, batch_slots)
        )
        width = min(2 * width, FAULT_BATCH_MAX)


#: The ``stop`` of a segment that nothing replaces, and the update
#: period of a plain walk, whose version clock never ticks.
_FOREVER = sys.maxsize


def _walk_services(
    segments: Sequence[tuple],
    file: str,
    m_needed: int,
    start: int,
    horizon: int,
    faults: FaultModel | None,
    need_distinct: bool = True,
    versioned: bool = False,
) -> tuple[int | None, dict[int, None], list[int], int | None, int]:
    """The one scalar walker: hear ``file`` in ``[start, start +
    horizon)`` until ``m_needed`` distinct blocks survive.

    ``segments`` holds one row ``(stop, program, shift, dispersal_of,
    period_of)`` per program on the air, in airing order, from the one
    covering ``start``.  A row airs program slot ``s`` at slot
    ``s + shift`` until slot ``stop``; ``dispersal_of(file)`` is the
    file's IDA level ``m`` there (``None``: the aired block count) and
    ``period_of(file)`` its update period.  A static program is the row
    ``(_FOREVER, program, 0, None, period_of)``: one segment at shift 0,
    with no dispersal rule since its ``m`` never changes.

    Held blocks are dropped, as torn discards, when a heard service airs
    under another ``m`` or past a version boundary (``versioned`` only);
    a row whose every service is lost changes nothing.  The walk ends at
    ``m_needed`` distinct blocks or, without ``need_distinct``, once it
    holds every index below ``m_needed``.  Returns ``(finish, held,
    lost, write, discards)``: the finish slot or ``None``, the held
    blocks in arrival order, the lost slots, the held version's write
    slot (``None`` if nothing was heard) and the torn discards.

    Raises :class:`SimulationError` when ``horizon < 1`` or ``start <
    0``.
    """
    if horizon < 1:
        raise SimulationError(f"horizon must be >= 1: {horizon}")
    end = start + horizon
    # A specific-blocks walk must hold these indices, not just m blocks.
    wanted = None if need_distinct else set(range(m_needed))
    held: dict[int, None] = {}
    need, lost, discards = m_needed, [], 0
    held_m = held_write = None
    lo = start
    for stop, program, shift, dispersal_of, period_of in segments:
        if lo >= end:
            break
        hi = stop if stop < end else end
        if file in program.files:
            m_here = dispersal_of and dispersal_of(file)
            if m_here is None and dispersal_of:
                m_here = program.block_count(file)
            period = period_of(file) if versioned else _FOREVER
            if not held:  # nothing to drop: count from lo's version
                held_m, held_write = m_here, lo - lo % period
                boundary = held_write + period
            elif versioned or m_here != held_m:
                boundary = -1  # the next heard service judges both
            for slots, blocks, decisions in fault_batches(
                program.index, file, lo - shift, hi - shift, faults, shift
            ):
                for slot, block, dropped in zip(slots, blocks, decisions):
                    if dropped:
                        lost.append(slot)
                        continue
                    if slot >= boundary:
                        write = slot - slot % period
                        boundary = write + period
                        if write != held_write or m_here != held_m:
                            discards += len(held)
                            held, need = {}, m_needed
                            held_m, held_write = m_here, write
                    held[block] = None
                    if len(held) >= need:
                        if wanted is None or held.keys() >= wanted:
                            return slot, held, lost, held_write, discards
                        need = len(held) + 1
        lo = hi
    return None, held, lost, held_write if held else None, discards


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of one retrieval attempt.

    Attributes
    ----------
    file:
        The target file.
    start:
        The phase (slot at which the client began listening).
    completed:
        Whether the requirement was met within the horizon.
    finish_slot:
        Slot at which the final needed block arrived (None if incomplete).
    latency:
        ``finish_slot - start + 1`` in slots (None if incomplete).
    received:
        Distinct block indices received, in arrival order.
    lost_slots:
        Slots of the target file that the fault model clobbered.
    """

    file: str
    start: int
    completed: bool
    finish_slot: int | None
    latency: int | None
    received: tuple[int, ...]
    lost_slots: tuple[int, ...]

    def met_deadline(self, deadline_slots: int) -> bool:
        """Whether retrieval finished within ``deadline_slots`` slots."""
        return self.completed and self.latency is not None and (
            self.latency <= deadline_slots
        )


def retrieve(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    faults: FaultModel | None = None,
    need_distinct: bool = True,
    max_slots: int | None = None,
) -> RetrievalResult:
    """Simulate one retrieval.

    Parameters
    ----------
    program:
        The broadcast program the server runs.
    file:
        Target file name.
    m_needed:
        Blocks required: with ``need_distinct``, any ``m`` distinct
        indices; otherwise every index in ``0 .. m_needed - 1``.
    start:
        The client's phase.
    faults:
        Channel fault model (default :class:`NoFaults`).
    need_distinct:
        IDA mode (True) vs specific-blocks mode (False).
    max_slots:
        Listening horizon: the client hears slots ``[start, start +
        horizon)``.  Defaults to ``(m_needed + 2)`` data cycles, after
        which the retrieval reports failure.  (The same convention as
        :func:`repro.sim.channel.broadcast_retrieve`.)

    Raises
    ------
    SimulationError
        If ``file`` is not in the program (the retrieval could never
        finish, which is a configuration error rather than a timeout),
        ``start`` is negative, or the horizon is below one slot.
    """
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    finish, held, lost, _, _ = _walk_services(
        ((_FOREVER, program, 0, None, None),), file, m_needed, start,
        listen_horizon(program, m_needed, max_slots), faults, need_distinct,
    )
    # Positional: keywords cost a fifth of building the result.
    return RetrievalResult(
        file, start, finish is not None, finish,
        None if finish is None else finish - start + 1,
        tuple(held), tuple(lost),
    )


@dataclass(frozen=True)
class MultiChannelRetrieval:
    """Outcome of one retrieval over a :class:`ChannelSet`.

    Attributes
    ----------
    file:
        The target file.
    start:
        The slot at which the client decided to retrieve (*before* any
        re-tuning).
    completed:
        Whether the requirement was met within the horizon.
    channel:
        The channel the client chose to listen on.
    switched:
        Whether choosing it required a re-tune (and paid the cost).
    finish_slot:
        Slot of the final needed block - or, when incomplete, the last
        slot of the exhausted listening horizon (the client is busy
        until then either way, which is what multi-channel callers need
        to advance their clocks; single-channel
        :class:`RetrievalResult` reports ``None`` instead).
    latency:
        ``finish_slot - start + 1``, tuning cost included (None if
        incomplete).
    received / lost_slots:
        As in :class:`RetrievalResult`, on the chosen channel.
    """

    file: str
    start: int
    completed: bool
    channel: int
    switched: bool
    finish_slot: int
    latency: int | None
    received: tuple[int, ...]
    lost_slots: tuple[int, ...]

    def met_deadline(self, deadline_slots: int) -> bool:
        """Whether retrieval finished within ``deadline_slots`` slots."""
        return self.completed and self.latency is not None and (
            self.latency <= deadline_slots
        )


def best_channel(
    channels: "ChannelSet",
    file: str,
    m_needed: int,
    *,
    start: int,
    tuned: int,
    need_distinct: bool = True,
    max_slots: int | None = None,
    among: Sequence[int] | None = None,
) -> tuple[int, int, int, int | None]:
    """The channel a rational client listens on, and its clean finish.

    Deterministic choice rule shared by every walker (fast, reference,
    object engine, SoA engine) - they must agree bit-for-bit: score each
    candidate channel by its **fault-free** finish slot from the slot the
    client could start listening (``start``, plus the tuning cost when
    the candidate is not the currently tuned channel); completed probes
    beat exhausted ones, earlier finishes beat later ones, and ties go
    to the lowest channel index.  Faults are *not* consulted - the
    client cannot predict them, so it commits to the channel that is
    best on the advertised program.

    Returns ``(channel, listen_start, horizon, finish)`` where
    ``finish`` is the slot the chosen channel's fault-free retrieval
    completes at, or ``None`` when it exhausts the horizon.  IDA
    candidates are scored by an O(log n) lookup into the index's finish
    tables (:meth:`~repro.bdisk.program_index.ProgramIndex.fault_free_finish`);
    specific-block candidates walk their probes.  ``among`` restricts
    the candidates to a subset of the file's channels (quorum assembly
    crosses channels off as it reads them).
    """
    candidates = (
        channels.channels_for(file) if among is None else tuple(among)
    )
    if not candidates:
        raise SimulationError(
            f"no candidate channels to choose from for {file!r}"
        )
    best: tuple[int, int, int] | None = None
    chosen: tuple[int, int, int, int | None] | None = None
    for candidate in candidates:
        listen = channels.listen_start(start, tuned, candidate)
        program = channels.programs[candidate]
        horizon = listen_horizon(program, m_needed, max_slots)
        if not need_distinct:
            finish = retrieve(
                program,
                file,
                m_needed,
                start=listen,
                need_distinct=False,
                max_slots=horizon,
            ).finish_slot
        elif file not in program.files:
            raise SimulationError(f"file {file!r} is not broadcast")
        else:
            finish = program.index.fault_free_finish(file, m_needed, listen)
            if finish is not None and finish >= listen + horizon:
                finish = None
        key = (
            (0, finish, candidate)
            if finish is not None
            else (1, listen + horizon - 1, candidate)
        )
        if best is None or key < best:
            best = key
            chosen = (candidate, listen, horizon, finish)
    assert chosen is not None  # channels_for never returns empty
    return chosen


def retrieve_multichannel(
    channels: "ChannelSet",
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    tuned: int = 0,
    faults: Sequence[FaultModel | None] | None = None,
    need_distinct: bool = True,
    max_slots: int | None = None,
) -> MultiChannelRetrieval:
    """Simulate one retrieval over ``k`` parallel channels.

    The client picks the channel with the earliest feasible (fault-free)
    occurrence run via :func:`best_channel`, pays ``tuning_cost``
    slots when that channel differs from ``tuned``, then performs the
    ordinary single-channel retrieval there under that channel's fault
    model (``faults[channel]``; ``None`` entries mean a clean channel).

    With one channel and ``tuned=0`` this is exactly
    :func:`retrieve` - same slots heard, same blocks, same latency -
    which is what keeps ``k=1`` scenarios bit-identical to the
    single-channel stack.
    """
    if faults is not None and len(faults) != channels.count:
        raise SimulationError(
            f"faults must have one entry per channel: got {len(faults)} "
            f"for {channels.count} channel(s)"
        )
    channel, listen, horizon, _ = best_channel(
        channels,
        file,
        m_needed,
        start=start,
        tuned=tuned,
        need_distinct=need_distinct,
        max_slots=max_slots,
    )
    result = retrieve(
        channels.programs[channel],
        file,
        m_needed,
        start=listen,
        faults=faults[channel] if faults is not None else None,
        need_distinct=need_distinct,
        max_slots=horizon,
    )
    finish = (
        result.finish_slot
        if result.completed and result.finish_slot is not None
        else listen + horizon - 1
    )
    return MultiChannelRetrieval(
        file=file,
        start=start,
        completed=result.completed,
        channel=channel,
        switched=channel != tuned,
        finish_slot=finish,
        latency=finish - start + 1 if result.completed else None,
        received=result.received,
        lost_slots=result.lost_slots,
    )
