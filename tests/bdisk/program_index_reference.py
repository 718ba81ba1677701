"""The slot walk :class:`~repro.bdisk.program_index.ProgramIndex` used to
build its tables with: the oracle of the service-slot build.

It visits every slot of one data cycle, idle slots included, and counts
each file's services to give service ``c`` block ``c mod n`` - the
rotation written out one slot at a time.
"""

from __future__ import annotations

from repro.bdisk.program import BroadcastProgram, SlotContent
from repro.core.schedule import IDLE


def walk_tables(program: BroadcastProgram) -> tuple[
    tuple[SlotContent | None, ...],
    dict[str, tuple[int, ...]],
    dict[str, tuple[int, ...]],
]:
    """``(contents, slots, blocks)`` of one data cycle, slot by slot."""
    schedule = program.schedule
    counters = {file: 0 for file in program.files}
    contents: list[SlotContent | None] = []
    slots: dict[str, list[int]] = {file: [] for file in program.files}
    blocks: dict[str, list[int]] = {file: [] for file in program.files}
    period = schedule.cycle_length
    for t in range(program.data_cycle_length):
        file = schedule.cycle[t % period]
        if file is IDLE:
            contents.append(None)
            continue
        count = counters[file]
        counters[file] = count + 1
        index = count % program.block_count(file)
        contents.append(SlotContent(file, index))
        slots[file].append(t)
        blocks[file].append(index)
    return (
        tuple(contents),
        {file: tuple(found) for file, found in slots.items()},
        {file: tuple(found) for file, found in blocks.items()},
    )


def walk_finish_table(
    slots: tuple[int, ...], blocks: tuple[int, ...], cycle: int, need: int
) -> tuple[int, ...]:
    """Per occurrence: where a clean retrieval starting there holds
    ``need`` distinct blocks (relative to its cycle base), ``-1`` when
    it never does - found by walking the occurrences, not by rotation."""
    count = len(slots)
    if need > len(set(blocks)):
        # One data cycle carries every block the file ever airs.
        return (-1,) * count
    table = []
    for start in range(count):
        held: set[int] = set()
        finish = -1
        for step in range(2 * count):
            k = start + step
            held.add(blocks[k % count])
            if len(held) >= need:
                finish = slots[k % count] + (k // count) * cycle
                break
        table.append(finish)
    return tuple(table)
