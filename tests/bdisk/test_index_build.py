"""The occurrence index built from service slots against the slot walk.

:class:`~repro.bdisk.program_index.ProgramIndex` tiles each file's
schedule service slots over the data cycle and hands service ``c`` block
``c mod n``; :mod:`program_index_reference` visits every slot instead.
Slots, blocks, the lazily built content table and the fault-free finish
tables must agree on random programs and on every example's design.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from program_index_reference import walk_finish_table, walk_tables
from repro.api import Scenario
from repro.api.engine import BroadcastEngine
from repro.bdisk.flat import build_aida_flat_program
from test_finish_table import programs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SCENARIOS = sorted(
    path.name
    for path in EXAMPLES.glob("*.json")
    if path.name.startswith(("scenario_", "server_awacs_modes"))
)


def assert_index_matches_walk(program):
    contents, slots, blocks = walk_tables(program)
    index = program.index
    assert index.files == program.files
    for file in program.files:
        assert index.occurrence_slots(file) == slots[file]
        assert index.occurrence_blocks(file) == blocks[file]
        for need in range(1, program.block_count(file) + 2):
            assert index.finish_table(file, need) == walk_finish_table(
                slots[file], blocks[file], program.data_cycle_length, need
            ), (file, need)
    assert index.contents == contents
    assert all(
        program.slot_content(t) == contents[t] for t in range(len(contents))
    )


def example_programs(name):
    design = BroadcastEngine(Scenario.from_file(EXAMPLES / name)).design()
    return [d.program for d in getattr(design, "designs", (design,))]


class TestIndexBuild:
    @given(program=programs())
    @settings(max_examples=80, deadline=None)
    def test_random_programs(self, program):
        assert_index_matches_walk(program)

    def test_figure_6_program(self):
        assert_index_matches_walk(
            build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])
        )

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_example_designs(self, name):
        for program in example_programs(name):
            assert_index_matches_walk(program)

    def test_contents_wait_for_first_use(self):
        program = example_programs("scenario_awacs.json")[0]
        index = program.index
        assert index._contents is None
        assert index.occurrence_slots(program.files[0])
        assert index._contents is None
        program.slot_content(0)
        assert index._contents is not None
