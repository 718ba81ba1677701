"""Worst-case delay analysis: Lemmas 1-2 and the Figure 7 table.

The paper's central quantitative claim is adversarial: if retrieving a
file costs ``L`` slots fault-free, how much longer can ``r`` block errors
make it?

* **Lemma 1** (no IDA, flat program of period ``Pi``): at most ``r * Pi``
  extra - each lost block must be awaited for a full period.
* **Lemma 2** (AIDA, max inter-block gap ``Delta``): at most
  ``r * Delta`` extra - any next block of the file substitutes.

:func:`worst_case_delay` computes the *exact* worst case by exhaustive
adversary: a memoized game search over (position in data cycle, blocks
collected, kills remaining), maximized over every client phase.  The
search is exponential in the file's dispersal width, which is fine for
the paper's toy programs (Figure 7) and the property tests; searches
whose partial-retrieval state count exceeds the :data:`MAX_EXACT_WIDTH`
budget are rejected eagerly with a clear
:class:`~repro.errors.SimulationError` rather than letting the memo blow
up the machine.  For large sweeps, :func:`greedy_adversary_delay` gives
a fast lower bound on the worst case (kill the next useful block while
budget lasts) at any width.

Delay is defined per phase as ``completion(phase, adversary) -
completion(phase, no faults)`` and then maximized over phases; the
without-IDA client needs every specific block index, the AIDA client any
``m`` distinct ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram

#: Width budget for the exact adversary game when it has kills to
#: spend.  The memo is keyed on frozensets of collected block indices,
#: so its state count grows with the number of sub-``m`` subsets of the
#: file's dispersal width.  Files up to this wide are always accepted;
#: wider files are accepted only while their collected-subset count
#: (``sum of C(width, k) for k < m_needed``) stays below
#: ``2**MAX_EXACT_WIDTH`` - a wide file needing few blocks is cheap,
#: a wide file needing most of them is not.  Beyond that the search is
#: rejected eagerly with a :class:`SimulationError` instead of
#: consuming the machine; use :func:`greedy_adversary_delay` (linear)
#: there.
MAX_EXACT_WIDTH = 20


def lemma1_bound(period: int, errors: int) -> int:
    """Lemma 1 upper bound: ``r * Pi`` extra slots without IDA."""
    return errors * period


def lemma2_bound(delta: int, errors: int) -> int:
    """Lemma 2 upper bound: ``r * Delta`` extra slots with AIDA."""
    return errors * delta


def _file_slots(
    program: BroadcastProgram, file: str
) -> list[tuple[int, int]]:
    """``(slot, block_index)`` for every service of ``file`` in one data
    cycle, straight from the program's occurrence index."""
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    index = program.index
    return list(
        zip(index.occurrence_slots(file), index.occurrence_blocks(file))
    )


def _content_by_slot(
    program: BroadcastProgram, file: str
) -> list[int | None]:
    """Per-slot block index of ``file`` over one data cycle (None when
    the slot is idle or carries another file)."""
    content_by_slot: list[int | None] = [None] * program.data_cycle_length
    for t, index in _file_slots(program, file):
        content_by_slot[t] = index
    return content_by_slot


def _check_exact_width(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    *,
    need_distinct: bool,
) -> None:
    """Reject adversary searches too wide for the exact game.

    The bound tracks the actual state count, not the width alone: a
    file dispersed over 40 blocks of which any 2 reconstruct it is
    trivial to search, while 22 blocks needing 21 distinct is not.
    Without-IDA clients (``need_distinct=False``) only ever collect
    block indices below ``m_needed``, so their collectible width is
    capped there regardless of how many blocks rotate.
    """
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    width = program.block_count(file)
    if not need_distinct:
        width = min(width, m_needed)
    if width <= MAX_EXACT_WIDTH:
        return
    from math import comb

    subsets = sum(comb(width, k) for k in range(min(m_needed, width)))
    if subsets > 1 << MAX_EXACT_WIDTH:
        raise SimulationError(
            f"exact adversary search for file {file!r} is exponential "
            f"in dispersal width: collecting {m_needed} of {width} "
            f"rotated blocks spans {subsets} partial-retrieval states "
            f"(cap: width {MAX_EXACT_WIDTH}, or 2^{MAX_EXACT_WIDTH} "
            f"states beyond it); either shrink the search - a smaller "
            f"m (fewer blocks to reconstruct, e.g. a larger block "
            f"size) or a shorter horizon (fewer rotated blocks per "
            f"cycle) - or use greedy_adversary_delay for a fast "
            f"linear lower bound at any width"
        )


def _completion_game(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    *,
    need_distinct: bool,
) -> "callable":
    """Build the memoized adversary game for one (program, file) pair.

    Returns ``worst(phase, kills)``: the worst-case completion latency in
    slots (inclusive) when the client starts at ``phase`` and the
    adversary may clobber up to ``kills`` of the file's blocks.  The
    adversary is clairvoyant and optimal: at every useful block it
    branches between letting it through and killing it.
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
    """Retrieval latency in slots with no faults, from a given phase."""
    game = _completion_game(
        program, file, m_needed, need_distinct=need_distinct
    )
    return game(phase, 0)


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
    fault-free completion)``.  Phases range over one data cycle, which
    covers all distinct client experiences of the periodic program.

    With ``errors > 0`` the game branches at every useful block, so
    searches past the :data:`MAX_EXACT_WIDTH` state budget are rejected
    with a :class:`SimulationError` up front.  With ``errors == 0`` the
    delay is 0 at every phase; one fault-free retrieval from phase 0
    still raises for a file that cannot be retrieved, since whether the
    useful blocks of a data cycle suffice does not depend on the phase.
    """
    if errors < 0:
        raise SimulationError(f"errors must be >= 0: {errors}")
    if errors > 0:
        _check_exact_width(
            program, file, m_needed, need_distinct=need_distinct
        )
    game = _completion_game(
        program, file, m_needed, need_distinct=need_distinct
    )
    if errors == 0:
        game(0, 0)
        return 0
    worst = 0
    for phase in range(program.data_cycle_length):
        delay = game(phase, errors) - game(phase, 0)
        worst = max(worst, delay)
    return worst


def worst_case_latency(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    errors: int,
    *,
    need_distinct: bool = True,
) -> int:
    """Exact worst-case *total* latency (slots) under ``errors`` losses.

    Subject to the same :data:`MAX_EXACT_WIDTH` state budget as
    :func:`worst_case_delay` when ``errors > 0``.
    """
    if errors < 0:
        raise SimulationError(f"errors must be >= 0: {errors}")
    if errors > 0:
        _check_exact_width(
            program, file, m_needed, need_distinct=need_distinct
        )
    game = _completion_game(
        program, file, m_needed, need_distinct=need_distinct
    )
    return max(
        game(phase, errors) for phase in range(program.data_cycle_length)
    )


def greedy_adversary_delay(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    errors: int,
    *,
    phase: int = 0,
    need_distinct: bool = True,
) -> int:
    """Fast lower bound: the adversary kills the next useful block while
    its budget lasts.  Linear in the horizon; used by the large Lemma
    sweeps where the exact game is too wide."""
    cycle = program.data_cycle_length
    content_by_slot = _content_by_slot(program, file)

    def run(kills: int) -> int:
        collected: set[int] = set()
        budget = kills
        t = phase
        guard = phase + (m_needed + kills + 2) * cycle + cycle
        while t <= guard:
            index = content_by_slot[t % cycle]
            useful = index is not None and (
                index not in collected
                if need_distinct
                else index < m_needed and index not in collected
            )
            if useful:
                if budget > 0:
                    budget -= 1
                else:
                    collected.add(index)
                    if len(collected) >= m_needed:
                        return t - phase + 1
            t += 1
        raise SimulationError(
            f"greedy adversary run for {file!r} did not complete"
        )

    return run(errors) - run(0)


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
