"""The exhaustive adversary game, kept as the oracle of the closed forms.

:mod:`repro.sim.delay` reads every worst case off the block rotation.
This module keeps the search it replaced: a memoized game over
(position in the data cycle, blocks collected, kills remaining) in
which a clairvoyant adversary branches between letting each useful
block through and killing it.  It is exponential in the file's
dispersal width, so the tests play it on small programs only.
:func:`tests.oracles.sim_reference.worst_case_delay` is the same game on the
seed slot walk; this copy also answers latencies per phase and plays
the multichannel client.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.bdisk.program import BroadcastProgram
from repro.errors import SimulationError


def _content_by_slot(
    program: BroadcastProgram, file: str
) -> list[int | None]:
    """Per-slot block index of ``file`` over one data cycle (None when
    the slot is idle or carries another file)."""
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    index = program.index
    content_by_slot: list[int | None] = [None] * program.data_cycle_length
    for t, block in zip(
        index.occurrence_slots(file), index.occurrence_blocks(file)
    ):
        content_by_slot[t] = block
    return content_by_slot


def completion_game(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    *,
    need_distinct: bool,
):
    """Build the memoized adversary game for one (program, file) pair.

    Returns ``completion(phase, kills)``: the worst-case completion
    latency in slots (inclusive) when the client starts at ``phase``
    and the adversary may clobber up to ``kills`` of the file's blocks.
    """
    cycle = program.data_cycle_length
    content_by_slot = _content_by_slot(program, file)

    @lru_cache(maxsize=None)
    def worst(pos: int, collected: frozenset, kills: int) -> int:
        """Worst remaining slots (counting the current one) until done."""
        # Scan to the next useful slot; periodicity bounds the scan.
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

    def completion(phase: int, kills: int) -> int:
        return worst(phase % cycle, frozenset(), kills)

    return completion


def fault_free_latency(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    *,
    phase: int = 0,
    need_distinct: bool = True,
) -> int:
    """The game's latency from ``phase`` with no kills."""
    game = completion_game(
        program, file, m_needed, need_distinct=need_distinct
    )
    return game(phase, 0)


def worst_case_latency(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    errors: int,
    *,
    need_distinct: bool = True,
) -> int:
    """The game's worst latency under ``errors`` kills, over all phases."""
    if errors < 0:
        raise SimulationError(f"errors must be >= 0: {errors}")
    game = completion_game(
        program, file, m_needed, need_distinct=need_distinct
    )
    return max(
        game(phase, errors) for phase in range(program.data_cycle_length)
    )


def chosen_channel_delay(
    programs,
    file: str,
    m_needed: int,
    errors: int,
    *,
    need_distinct: bool = True,
    tuning_cost: int = 0,
) -> int:
    """The game on the channel a client picks, at every phase and tuning.

    At each slot of one common period of the carriers' data cycles, and
    tuned to each carrier or to none, the client takes the carrier whose
    fault-free game finishes first from the slot it starts hearing it -
    ``tuning_cost`` slots late on every carrier but the tuned one (the
    first on ties); the delay there is that carrier's game with
    ``errors`` kills minus its game with none.  With one program this
    is the all-phase game of
    :func:`tests.oracles.sim_reference.worst_case_delay`.
    """
    if errors < 0:
        raise SimulationError(f"errors must be >= 0: {errors}")
    games = [
        completion_game(program, file, m_needed, need_distinct=need_distinct)
        for program in programs
    ]
    period = math.lcm(*(program.data_cycle_length for program in programs))
    worst = 0
    for tuned in (None, *range(len(games))):
        for phase in range(period):
            listens = [
                phase if index == tuned else phase + tuning_cost
                for index in range(len(games))
            ]
            _, chosen = min(
                (listens[index] + game(listens[index], 0), index)
                for index, game in enumerate(games)
            )
            listen = listens[chosen]
            worst = max(
                worst,
                games[chosen](listen, errors) - games[chosen](listen, 0),
            )
    return worst
