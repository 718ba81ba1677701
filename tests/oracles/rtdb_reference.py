"""Seed slot-walking rtdb implementations, kept as an executable spec.

The production rtdb clients walk precomputed occurrence tables
(:class:`repro.bdisk.ProgramIndex`) and batch their fault queries.  This
module preserves the original slot-by-slot implementations - recompute
every slot's content from the schedule, visit every slot of the horizon,
ask the fault model one slot at a time - in the style of
:mod:`tests.oracles.sim_reference`, so that:

* property tests can assert the fast paths are *bit-identical* to the
  seed semantics on randomized programs, fault models, and update
  periods (``tests/rtdb/test_versioned_equivalence.py``);
* ``benchmarks/bench_rtdb.py`` can measure the speedup of the
  occurrence-indexed versioned retrieval against the behaviour it
  replaced.

Nothing here is used by the production pipeline; these functions are
deliberately naive and O(horizon x period).  The horizon convention is
shared with the production implementations
(:func:`repro.rtdb.updates.versioned_horizon`), so the two sides answer
the same question.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram
from tests.oracles import sim_reference
from repro.sim.faults import FaultModel, NoFaults
from repro.rtdb.items import DataItem
from repro.rtdb.temporal import latency_budget_slots
from repro.rtdb.transactions import ReadTransaction, TransactionResult
from repro.rtdb.updates import (
    QuorumRead,
    UpdatingServer,
    VersionedRetrieval,
    versioned_horizon,
    versioned_listen_horizon,
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
    """The seed ``retrieve_versioned``: walk every slot of the horizon.

    Semantics match :func:`repro.rtdb.updates.retrieve_versioned`
    exactly (including the shared default-horizon convention); only the
    algorithm differs - every slot's content is recomputed from the
    schedule and the fault model is asked one slot at a time.
    """
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    fault_model = faults if faults is not None else NoFaults()
    update_period = server.period(file)
    horizon = (
        max_slots
        if max_slots is not None
        else versioned_horizon(program, m_needed, update_period)
    )

    held: set[int] = set()
    held_version: int | None = None
    discards = 0
    for t in range(start, start + horizon):
        content = sim_reference.slot_content(program, t)
        if content is None or content.file != file:
            continue
        if fault_model.is_lost(t):
            continue
        version = server.version_at(file, t)
        if held_version is None or version > held_version:
            discards += len(held)
            held = set()
            held_version = version
        elif version < held_version:  # pragma: no cover - monotone clock
            continue
        held.add(content.block_index)
        if len(held) >= m_needed:
            write = server.write_slot(file, held_version)
            return VersionedRetrieval(
                file=file,
                completed=True,
                finish_slot=t,
                latency=t - start + 1,
                version=held_version,
                age_at_completion=t - write,
                torn_discards=discards,
            )
    return VersionedRetrieval(
        file=file,
        completed=False,
        finish_slot=None,
        latency=None,
        version=held_version,
        age_at_completion=None,
        torn_discards=discards,
    )


def execute_transaction(
    program: BroadcastProgram,
    transaction: ReadTransaction,
    items: Mapping[str, DataItem],
    *,
    start: int = 0,
    slot_ms: float,
    faults: FaultModel | None = None,
    server: UpdatingServer | None = None,
    update_overhead_ms: float = 0.0,
) -> TransactionResult:
    """The seed ``execute_transaction``: slot-walking per-item fetches.

    Mirrors :func:`repro.rtdb.transactions.execute_transaction` - both
    regimes, same staleness rules, same sequential single-receiver
    chaining - but every retrieval is the slot walker
    (:func:`tests.oracles.sim_reference.retrieve` / :func:`retrieve_versioned`
    above).
    """
    fault_model = faults if faults is not None else NoFaults()
    clock = start
    retrievals = []
    versioned = []
    stale = []

    for name in transaction.items:
        item = items.get(name)
        if item is None:
            raise SimulationError(
                f"transaction {transaction.name!r} reads unknown item "
                f"{name!r}"
            )
        if server is None:
            result = sim_reference.retrieve(
                program,
                name,
                item.blocks,
                start=clock,
                faults=fault_model,
                need_distinct=True,
            )
            retrievals.append(result)
            completed = result.completed and result.finish_slot is not None
            if completed and not item.constraint.is_fresh(
                result.latency * slot_ms
            ):
                stale.append(name)
            finish = result.finish_slot
        else:
            vresult = retrieve_versioned(
                program,
                server,
                name,
                item.blocks,
                start=clock,
                faults=fault_model,
            )
            versioned.append(vresult)
            completed = (
                vresult.completed and vresult.finish_slot is not None
            )
            if completed and not vresult.is_fresh(
                latency_budget_slots(
                    item.constraint,
                    slot_ms=slot_ms,
                    update_overhead_ms=update_overhead_ms,
                )
            ):
                stale.append(name)
            finish = vresult.finish_slot
        if not completed or finish is None:
            return TransactionResult(
                transaction=transaction,
                start=start,
                retrievals=tuple(retrievals),
                finish_slot=None,
                stale_items=tuple(stale),
                versioned=tuple(versioned),
            )
        clock = finish + 1

    return TransactionResult(
        transaction=transaction,
        start=start,
        retrievals=tuple(retrievals),
        finish_slot=clock - 1,
        stale_items=tuple(stale),
        versioned=tuple(versioned),
    )


def retrieve_versioned_quorum(
    channels,
    server: UpdatingServer,
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    tuned: int = 0,
    faults=None,
    quorum: int | None = None,
    max_slots: int | None = None,
):
    """The seed quorum read: slot-walking probes and copies throughout.

    Semantics match :func:`repro.rtdb.updates.retrieve_versioned_quorum`
    exactly - the sequential best-remaining-channel order, the tuning
    and horizon conventions, the trailing-run quorum condition - but
    every channel probe uses :func:`tests.oracles.sim_reference.retrieve` and
    every copy uses the slot-walking :func:`retrieve_versioned` above.
    """
    r = channels.quorum if quorum is None else quorum
    candidates = channels.channels_for(file)
    if r > len(candidates):
        raise SimulationError(
            f"quorum {r} of {file!r} needs {r} copies, but only "
            f"{len(candidates)} channel(s) carry it "
            f"(channels {list(candidates)})"
        )
    update_period = server.period(file)
    remaining = list(candidates)
    clock, current, switches = start, tuned, 0
    completed_copies = 0
    run = 0
    run_version = None
    newest = None
    discards = 0
    aborted = 0
    last_busy = start

    while remaining:
        # The shared choice rule, re-derived with slot-walking probes.
        best_key = None
        chosen = None
        for candidate in remaining:
            listen = clock
            if candidate != current:
                listen += channels.tuning_cost
            program = channels.programs[candidate]
            plain_horizon = (m_needed + 2) * program.data_cycle_length
            probe = sim_reference.retrieve(
                program,
                file,
                m_needed,
                start=listen,
                faults=None,
                need_distinct=True,
                max_slots=plain_horizon,
            )
            busy_until = (
                probe.finish_slot
                if probe.completed and probe.finish_slot is not None
                else listen + plain_horizon - 1
            )
            key = (0 if probe.completed else 1, busy_until, candidate)
            if best_key is None or key < best_key:
                best_key = key
                chosen = (candidate, listen)
        channel, listen = chosen
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
