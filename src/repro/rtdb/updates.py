"""Update dissemination: versioned items on a broadcast disk.

The paper's temporal-consistency motivation presumes the server keeps
re-dispersing fresh values ("disseminating updates" is the companion
line of work it cites).  This module models that loop:

* an :class:`UpdatingServer` owns per-item update periods: item ``i``
  gets a new version every ``period_i`` slots (version ``k`` is written
  at slot ``k * period_i``);
* every broadcast slot carries the block *of the version current at
  that slot* - so a client whose retrieval straddles an update observes
  blocks from two versions;
* IDA cannot mix versions (the linear combinations differ), so the
  client discards stale blocks and keeps collecting - a **torn read**
  that costs extra latency, which is exactly why tight temporal
  constraints need tight retrieval windows;
* the value's **age at completion** is ``finish - version_write_slot``;
  temporal consistency holds when that age fits the item's constraint.

:func:`retrieve_versioned` is one call of the scalar walker of
:mod:`repro.sim.client`, on the program as a timeline of one segment
whose version clock is the item's update period.  Slots carrying other
files never affected the outcome and fault decisions are deterministic
per ``(seed, slot)``, so the result is bit-identical to the seed
slot-walking loop (kept in ``tests/oracles/rtdb_reference.py`` as the
executable spec); benches sweep update periods to show the feasibility
frontier between update rate and the retrieval window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, TYPE_CHECKING

from repro.errors import SimulationError, SpecificationError
from repro.bdisk.program import BroadcastProgram
from repro.sim.client import (
    _FOREVER,
    _walk_services,
    best_channel,
    default_horizon,
)
from repro.sim.faults import FaultModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.bdisk.multichannel import ChannelSet

#: Ceiling on the *derived* default horizon, in slots.  A default past
#: this is almost certainly a configuration accident (an enormous data
#: cycle); rather than silently walking millions of slots the retrieval
#: raises and asks the caller to choose ``max_slots`` explicitly.
#: Caller-chosen horizons are honoured whatever their size - the budget
#: bounds the *implicit* walk only.
MAX_DEFAULT_HORIZON = 1 << 22


class UpdatingServer:
    """Per-item update clocks.

    ``update_periods[item]`` is the number of slots between consecutive
    versions; version ``v`` of an item is written at slot
    ``v * period`` (version 0 exists from the start).
    """

    def __init__(self, update_periods: Mapping[str, int]) -> None:
        for item, period in update_periods.items():
            if not isinstance(period, int) or isinstance(period, bool):
                raise SpecificationError(
                    f"update period for {item!r} must be an integer "
                    f"slot count, got {period!r}"
                )
            if period < 1:
                raise SpecificationError(
                    f"update period for {item!r} must be >= 1 slot"
                )
        self._periods = dict(update_periods)

    def period(self, item: str) -> int:
        try:
            return self._periods[item]
        except KeyError:
            raise SimulationError(
                f"no update period known for {item!r}"
            ) from None

    def version_at(self, item: str, slot: int) -> int:
        """The version current while slot ``slot`` is broadcast."""
        return slot // self.period(item)

    def write_slot(self, item: str, version: int) -> int:
        """The slot at which ``version`` was written."""
        return version * self.period(item)


def versioned_horizon(
    program: BroadcastProgram, m_needed: int, update_period: int
) -> int:
    """The default listening horizon for a versioned retrieval.

    The guarantee the default must cover: *when the update period is at
    least one data cycle, a fault-free retrieval always completes within
    two data cycles.*  One data cycle of any file carries every one of
    its block indices (the occurrence tables' block column is a whole
    number of rotations per cycle), so a version epoch with at least a
    cycle remaining completes the read, and an epoch boundary - when one
    is needed at all - arrives within a cycle.  Faster updates than that
    sit in the torn-read regime, where completion depends on how epoch
    boundaries align with the rotation; a few extra epochs of listening
    is all that is worth spending there.

    The default is therefore the plain-retrieval convention
    (:func:`repro.sim.client.default_horizon`, ``(m + 2)`` data cycles -
    the fault-free guarantee plus fault margin) stretched by at most one
    update period, clamped to one extra cycle's worth per epoch regime:
    ``(m + 2) * cycle + min(period, (m + 2) * cycle)``.  Unlike the old
    ``(m + 2) * (cycle + period)`` it grows *at most twofold* however
    long the item's period is, instead of exploding linearly in the
    period.
    """
    base = default_horizon(program, m_needed)
    return base + min(update_period, base)


def versioned_listen_horizon(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    update_period: int,
    *,
    max_slots: int | None,
) -> int:
    """The slots a versioned retrieval of ``file`` listens.

    ``max_slots`` verbatim when given - a caller-chosen horizon is
    honoured whatever its size - else :func:`versioned_horizon`, which
    must stay within :data:`MAX_DEFAULT_HORIZON`: a derived default past
    it raises :class:`SimulationError` instead of silently walking a
    huge cycle.
    """
    if max_slots is not None:
        return max_slots
    horizon = versioned_horizon(program, m_needed, update_period)
    if horizon > MAX_DEFAULT_HORIZON:
        raise SimulationError(
            f"default horizon for a versioned retrieval of {file!r} "
            f"is {horizon} slots (m={m_needed}, data cycle "
            f"{program.data_cycle_length}, period {update_period}), "
            f"past the {MAX_DEFAULT_HORIZON}-slot budget; pass "
            f"max_slots to listen that long deliberately"
        )
    return horizon


@dataclass(frozen=True)
class VersionedRetrieval:
    """Outcome of a retrieval against a live-updated item."""

    file: str
    completed: bool
    finish_slot: int | None
    latency: int | None
    version: int | None
    age_at_completion: int | None
    torn_discards: int

    def is_fresh(self, max_age_slots: int) -> bool:
        """Temporal consistency at completion time."""
        return (
            self.completed
            and self.age_at_completion is not None
            and self.age_at_completion <= max_age_slots
        )


def retrieve_versioned(
    program: BroadcastProgram,
    server: UpdatingServer,
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    faults: FaultModel | None = None,
    max_slots: int | None = None,
) -> VersionedRetrieval:
    """Retrieve ``m_needed`` distinct blocks *of one version*.

    Blocks of an older version are discarded the moment a newer one is
    seen (IDA cannot reconstruct across versions).  The result reports
    the version obtained, its age when retrieval completed, and how many
    blocks were thrown away to torn reads.

    One call of the walker :func:`repro.sim.client.retrieve` uses;
    outcomes are bit-identical to the slot walker preserved in
    ``tests/oracles/rtdb_reference.py``.

    Raises
    ------
    SimulationError
        If ``file`` is not broadcast, ``start`` is negative, the horizon
        is below one slot, or no ``max_slots`` was given and the derived
        default horizon exceeds :data:`MAX_DEFAULT_HORIZON` (pass an
        explicit ``max_slots`` to listen longer deliberately).
    """
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    update_period = server.period(file)
    horizon = versioned_listen_horizon(
        program, file, m_needed, update_period, max_slots=max_slots
    )
    finish, _, _, write, discards = _walk_services(
        ((_FOREVER, program, 0, None, server.period),), file, m_needed,
        start, horizon, faults, versioned=True,
    )
    # Positional: keywords cost a fifth of building the result.
    return VersionedRetrieval(
        file, finish is not None, finish,
        None if finish is None else finish - start + 1,
        None if write is None else write // update_period,
        None if finish is None else finish - write,
        discards,
    )


#: Outcomes a quorum read can report.
QUORUM_OUTCOMES = ("ok", "mismatch", "incomplete")


@dataclass(frozen=True)
class QuorumRead:
    """Outcome of an r-of-k version-consistent read over a channel set.

    Attributes
    ----------
    file:
        The item read.
    start:
        The slot the client decided to read at.
    outcome:
        ``"ok"`` - ``r`` copies of one version assembled;
        ``"mismatch"`` - every candidate channel was read cleanly but an
        update landed mid-assembly, so no ``r`` copies share the newest
        version; ``"incomplete"`` - at least one copy retrieval
        exhausted its horizon before the quorum formed.
    version:
        The version the quorum agreed on (``"ok"``), or the newest
        version seen (otherwise; ``None`` when nothing completed).
    finish_slot:
        The last slot the client was busy (quorum completion slot on
        ``"ok"``).
    latency:
        ``finish_slot - start + 1`` on ``"ok"``, else ``None``.
    tuned:
        The channel the client ends up tuned to.
    switches:
        Re-tunes performed (each cost ``tuning_cost`` slots).
    copies:
        Copy retrievals that completed.
    stale_copies:
        Completed copies whose version lost to a newer one mid-assembly
        (wasted reads, the quorum protocol's torn-read analogue).
    age_at_completion:
        The agreed version's age at the quorum completion slot
        (``"ok"`` only).
    torn_discards:
        Blocks discarded to torn reads, summed over all copies.
    """

    file: str
    start: int
    outcome: str
    version: int | None
    finish_slot: int
    latency: int | None
    tuned: int
    switches: int
    copies: int
    stale_copies: int
    age_at_completion: int | None
    torn_discards: int

    @property
    def completed(self) -> bool:
        """Whether the quorum assembled (``outcome == "ok"``)."""
        return self.outcome == "ok"

    def is_fresh(self, max_age_slots: int) -> bool:
        """Temporal consistency of the agreed version at completion."""
        return (
            self.completed
            and self.age_at_completion is not None
            and self.age_at_completion <= max_age_slots
        )


def retrieve_versioned_quorum(
    channels: "ChannelSet",
    server: UpdatingServer,
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    tuned: int = 0,
    faults: Sequence[FaultModel | None] | None = None,
    quorum: int | None = None,
    max_slots: int | None = None,
) -> QuorumRead:
    """Assemble an ``r``-of-``k`` version-consistent read.

    A single-receiver client reads copies *sequentially*: at each step
    it picks the best remaining candidate channel by the shared
    fault-free choice rule (:func:`repro.sim.client.best_channel`, which
    scores from the finish tables and walks no probe),
    re-tunes if needed (paying ``tuning_cost``), and runs an ordinary
    :func:`retrieve_versioned` there under that channel's fault model.
    Because the update clock is monotone, copy versions are
    non-decreasing, so the quorum condition is simply a trailing run of
    ``r`` copies with one version; an update landing mid-assembly
    resets the run (earlier copies become ``stale_copies``) and the
    client keeps going on fresh channels.

    ``quorum`` overrides the channel set's configured ``r``.  With one
    channel and ``r=1`` the read degenerates to a single
    :func:`retrieve_versioned` - bit-identical latency, version, age,
    and torn discards - so ``k=1`` scenarios reproduce the
    single-channel stack exactly.
    """
    r = channels.quorum if quorum is None else quorum
    candidates = channels.channels_for(file)
    if r < 1:
        raise SpecificationError(f"quorum must be >= 1: {r}")
    if r > len(candidates):
        raise SimulationError(
            f"quorum {r} of {file!r} needs {r} copies, but only "
            f"{len(candidates)} channel(s) carry it "
            f"(channels {list(candidates)})"
        )
    if faults is not None and len(faults) != channels.count:
        raise SimulationError(
            f"faults must have one entry per channel: got {len(faults)} "
            f"for {channels.count} channel(s)"
        )
    update_period = server.period(file)
    remaining = list(candidates)
    clock, current, switches = start, tuned, 0
    completed_copies = 0
    run = 0
    run_version: int | None = None
    newest: int | None = None
    discards = 0
    aborted = 0
    last_busy = start

    while remaining:
        channel, listen, _plain_horizon, _finish = best_channel(
            channels,
            file,
            m_needed,
            start=clock,
            tuned=current,
            among=remaining,
        )
        remaining.remove(channel)
        if channel != current:
            switches += 1
            current = channel
        program = channels.programs[channel]
        horizon = versioned_listen_horizon(
            program, file, m_needed, update_period, max_slots=max_slots
        )
        fault_model = faults[channel] if faults is not None else None
        copy = retrieve_versioned(
            program,
            server,
            file,
            m_needed,
            start=listen,
            faults=fault_model,
            max_slots=horizon,
        )
        discards += copy.torn_discards
        if copy.completed and copy.finish_slot is not None:
            completed_copies += 1
            if copy.version == run_version:
                run += 1
            else:
                run = 1
                run_version = copy.version
            newest = copy.version
            last_busy = copy.finish_slot
            clock = copy.finish_slot + 1
            if run >= r:
                return QuorumRead(
                    file=file,
                    start=start,
                    outcome="ok",
                    version=copy.version,
                    finish_slot=copy.finish_slot,
                    latency=copy.finish_slot - start + 1,
                    tuned=current,
                    switches=switches,
                    copies=completed_copies,
                    stale_copies=completed_copies - run,
                    age_at_completion=copy.age_at_completion,
                    torn_discards=discards,
                )
        else:
            aborted += 1
            last_busy = listen + horizon - 1
            clock = last_busy + 1

    return QuorumRead(
        file=file,
        start=start,
        outcome="incomplete" if aborted else "mismatch",
        version=newest,
        finish_slot=last_busy,
        latency=None,
        tuned=current,
        switches=switches,
        copies=completed_copies,
        stale_copies=completed_copies - run,
        age_at_completion=None,
        torn_discards=discards,
    )


def consistency_rate(
    program: BroadcastProgram,
    server: UpdatingServer,
    file: str,
    m_needed: int,
    max_age_slots: int,
    *,
    faults: FaultModel | None = None,
) -> float:
    """Fraction of phases whose retrieval is temporally consistent.

    Sweeps every client phase over one data cycle (the distinct client
    experiences of the periodic program) and checks the completed
    value's age against ``max_age_slots``.
    """
    if max_age_slots < 1:
        raise SpecificationError(
            f"max_age_slots must be >= 1: {max_age_slots}"
        )
    fresh = 0
    total = program.data_cycle_length
    for phase in range(total):
        result = retrieve_versioned(
            program, server, file, m_needed, start=phase, faults=faults
        )
        if result.is_fresh(max_age_slots):
            fresh += 1
    return fresh / total
