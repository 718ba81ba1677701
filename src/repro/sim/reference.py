"""Seed slot-walking implementations, kept as an executable spec.

The production simulators walk precomputed occurrence tables
(:class:`repro.bdisk.ProgramIndex`) and batch their fault queries.  This
module preserves the original slot-by-slot implementations - recompute
every slot's content from the schedule, visit every slot of the horizon,
ask the fault model one slot at a time - so that:

* property tests can assert the fast paths are *bit-identical* to the
  seed semantics on randomized programs
  (``tests/sim/test_index_equivalence.py``);
* ``benchmarks/bench_sim_throughput.py`` can measure the speedup of the
  occurrence-indexed core against the behaviour it replaced.

Nothing here is used by the production pipeline; these functions are
deliberately naive and O(horizon x period).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.core.schedule import IDLE
from repro.bdisk.program import BroadcastProgram, SlotContent
from repro.sim.client import RetrievalResult
from repro.sim.faults import FaultModel, NoFaults


def slot_content(program: BroadcastProgram, t: int) -> SlotContent | None:
    """The seed ``slot_content``: recompute the block index from the
    schedule's prefix counts instead of reading the occurrence table."""
    schedule = program.schedule
    file = schedule.owner_at(t)
    if file is IDLE:
        return None
    within = t % program.data_cycle_length
    cycles, offset = divmod(within, schedule.cycle_length)
    occurrences_before = cycles * schedule.total(file)
    occurrences_before += schedule.count_in_window(file, 0, offset)
    return SlotContent(
        file, occurrences_before % program.block_count(file)
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
    """The seed ``retrieve``: walk every slot of the horizon.

    Semantics match :func:`repro.sim.client.retrieve` exactly (including
    the unified horizon convention: the client listens to slots
    ``[start, start + horizon)``); only the algorithm differs.
    """
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    fault_model = faults if faults is not None else NoFaults()
    horizon = (
        max_slots
        if max_slots is not None
        else (m_needed + 2) * program.data_cycle_length
    )

    seen: set[int] = set()
    arrival_order: list[int] = []
    lost: list[int] = []
    wanted = set(range(m_needed)) if not need_distinct else None

    for t in range(start, start + horizon):
        content = slot_content(program, t)
        if content is not None and content.file == file:
            if fault_model.is_lost(t):
                lost.append(t)
            else:
                index = content.block_index
                if index not in seen:
                    seen.add(index)
                    arrival_order.append(index)
                done = (
                    len(seen) >= m_needed
                    if need_distinct
                    else wanted is not None and wanted <= seen
                )
                if done:
                    return RetrievalResult(
                        file=file,
                        start=start,
                        completed=True,
                        finish_slot=t,
                        latency=t - start + 1,
                        received=tuple(arrival_order),
                        lost_slots=tuple(lost),
                    )
    return RetrievalResult(
        file=file,
        start=start,
        completed=False,
        finish_slot=None,
        latency=None,
        received=tuple(arrival_order),
        lost_slots=tuple(lost),
    )


def min_distinct_in_window(
    program: BroadcastProgram, file: str, window: int
) -> int:
    """The seed ``min_distinct_in_window``: slide a window slot by slot
    across one data cycle."""
    if window == 0:
        return 0
    length = program.data_cycle_length
    contents = [slot_content(program, t) for t in range(length)]
    in_window: dict[int, int] = {}

    def slot_block(t: int) -> int | None:
        content = contents[t % length]
        if content is None or content.file != file:
            return None
        return content.block_index

    for t in range(window):
        block = slot_block(t)
        if block is not None:
            in_window[block] = in_window.get(block, 0) + 1
    best = len(in_window)
    for start in range(1, length):
        removed = slot_block(start - 1)
        if removed is not None:
            in_window[removed] -= 1
            if in_window[removed] == 0:
                del in_window[removed]
        added = slot_block(start + window - 1)
        if added is not None:
            in_window[added] = in_window.get(added, 0) + 1
        best = min(best, len(in_window))
    return best


def worst_case_delay(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    errors: int,
    *,
    need_distinct: bool = True,
) -> int:
    """The seed exhaustive-adversary worst case, built on the naive
    content map instead of the occurrence index."""
    from functools import lru_cache

    if errors < 0:
        raise SimulationError(f"errors must be >= 0: {errors}")
    cycle = program.data_cycle_length
    content_by_slot: list[int | None] = [None] * cycle
    found = False
    for t in range(cycle):
        content = slot_content(program, t)
        if content is not None and content.file == file:
            content_by_slot[t] = content.block_index
            found = True
    if not found:
        raise SimulationError(f"file {file!r} is not broadcast")

    @lru_cache(maxsize=None)
    def worst(pos: int, collected: frozenset, kills: int) -> int:
        offset = 0
        while offset <= cycle:
            index = content_by_slot[(pos + offset) % cycle]
            useful = index is not None and (
                index not in collected
                if need_distinct
                else index < m_needed and index not in collected
            )
            if useful:
                break
            offset += 1
        else:
            raise SimulationError(
                f"retrieval of {file!r} cannot progress: no useful block "
                f"in a full data cycle (m_needed={m_needed} too large?)"
            )
        here = (pos + offset) % cycle
        took = collected | {index}
        done = len(took) >= m_needed
        receive = offset + 1 if done else offset + 1 + worst(
            (here + 1) % cycle, took, kills
        )
        if kills == 0:
            return receive
        killed = offset + 1 + worst((here + 1) % cycle, collected, kills - 1)
        return max(receive, killed)

    result = 0
    for phase in range(cycle):
        delay = worst(phase, frozenset(), errors) - worst(
            phase, frozenset(), 0
        )
        result = max(result, delay)
    return result


def retrieve_multichannel(
    channels,
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    tuned: int = 0,
    faults=None,
    need_distinct: bool = True,
    max_slots: int | None = None,
):
    """The seed multi-channel retrieval: slot-walking end to end.

    Semantics match :func:`repro.sim.client.retrieve_multichannel`
    exactly - the same deterministic channel-choice rule (fault-free
    finish, completed-beats-exhausted, lowest channel on ties), the same
    tuning-cost and horizon conventions - but every probe and the final
    retrieval use the naive slot walker above, one slot and one fault
    query at a time.
    """
    from repro.sim.client import MultiChannelRetrieval
    from repro.sim.faults import NoFaults as _NoFaults

    best_key = None
    chosen = None
    for candidate in channels.channels_for(file):
        listen = start
        if candidate != tuned:
            listen += channels.tuning_cost
        program = channels.programs[candidate]
        horizon = (
            max_slots
            if max_slots is not None
            else (m_needed + 2) * program.data_cycle_length
        )
        probe = retrieve(
            program,
            file,
            m_needed,
            start=listen,
            faults=None,
            need_distinct=need_distinct,
            max_slots=horizon,
        )
        busy_until = (
            probe.finish_slot
            if probe.completed and probe.finish_slot is not None
            else listen + horizon - 1
        )
        key = (0 if probe.completed else 1, busy_until, candidate)
        if best_key is None or key < best_key:
            best_key = key
            chosen = (candidate, listen, horizon, probe)

    channel, listen, horizon, probe = chosen
    fault_model = faults[channel] if faults is not None else None
    if fault_model is None or isinstance(fault_model, _NoFaults):
        result = probe
    else:
        result = retrieve(
            channels.programs[channel],
            file,
            m_needed,
            start=listen,
            faults=fault_model,
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
