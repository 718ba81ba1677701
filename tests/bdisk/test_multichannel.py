"""Tests for ChannelSet and partition-then-solve multi-channel designs."""

import pickle

import pytest

from repro import obs
from repro.errors import SpecificationError
from repro.api.engine import BroadcastEngine
from repro.api.scenario import Scenario
from repro.bdisk import multichannel
from repro.bdisk.builder import design_program
from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.bdisk.multichannel import (
    ChannelSet,
    design_multichannel_program,
    resolve_assignment,
)
from repro.api.scenario import ChannelSpec


def catalogue():
    return [
        FileSpec("a", 2, 10),
        FileSpec("b", 3, 15),
        FileSpec("c", 2, 20),
        FileSpec("d", 4, 30),
    ]


def same_program(left, right):
    """Structural program equality (BroadcastProgram has no __eq__)."""
    return (
        left.schedule == right.schedule
        and left.files == right.files
        and left.data_cycle_length == right.data_cycle_length
        and all(
            left.block_count(f) == right.block_count(f) for f in left.files
        )
    )


class TestChannelSet:
    def build(self, **kwargs):
        design = design_multichannel_program(
            catalogue(), ChannelSpec(count=2, **kwargs)
        )
        return design.channel_set

    def test_count_and_channels_for(self):
        channels = self.build()
        assert channels.count == 2
        for name in ("a", "b", "c", "d"):
            ids = channels.channels_for(name)
            assert len(ids) == 1
            assert name in channels.programs[ids[0]].files

    def test_unknown_file_raises(self):
        with pytest.raises(SpecificationError, match="not in the channel"):
            self.build().channels_for("ghost")

    def test_listen_start_charges_tuning_only_on_switch(self):
        channels = self.build(tuning_cost=3)
        assert channels.listen_start(10, tuned=0, channel=0) == 10
        assert channels.listen_start(10, tuned=0, channel=1) == 13
        assert channels.listen_start(10, tuned=1, channel=1) == 10

    def test_pickle_round_trip(self):
        channels = self.build(tuning_cost=2)
        clone = pickle.loads(pickle.dumps(channels))
        assert clone.count == channels.count
        assert clone.tuning_cost == channels.tuning_cost
        assert clone.quorum == channels.quorum
        assert dict(clone.assignment) == dict(channels.assignment)
        for mine, theirs in zip(channels.programs, clone.programs):
            assert same_program(mine, theirs)

    def test_assignment_must_match_programs(self):
        good = self.build()
        with pytest.raises(SpecificationError, match="does not carry"):
            ChannelSet(
                programs=good.programs,
                assignment={name: (0, 1) for name in good.assignment},
            )

    def test_quorum_bounds_validated(self):
        good = self.build()
        with pytest.raises(SpecificationError, match="quorum"):
            ChannelSet(
                programs=good.programs,
                assignment=dict(good.assignment),
                quorum=3,
            )


class TestResolveAssignment:
    def test_striped_partitions_exactly_once(self):
        assignment = resolve_assignment(catalogue(), ChannelSpec(count=2))
        assert set(assignment) == {"a", "b", "c", "d"}
        assert all(len(ids) == 1 for ids in assignment.values())

    def test_replicated_places_everything_everywhere(self):
        assignment = resolve_assignment(
            catalogue(), ChannelSpec(count=3, assignment="replicated")
        )
        assert all(ids == (0, 1, 2) for ids in assignment.values())

    def test_explicit_is_taken_verbatim(self):
        mapping = {"a": (0,), "b": (1,), "c": (0, 1), "d": (1,)}
        assignment = resolve_assignment(
            catalogue(),
            ChannelSpec(count=2, assignment="explicit", explicit=mapping),
        )
        assert assignment == mapping


class TestDesignMultichannel:
    def test_k1_is_exactly_the_single_channel_design(self):
        files = catalogue()
        multi = design_multichannel_program(files, ChannelSpec(count=1))
        single = design_program(files)
        assert multi.count == 1
        assert same_program(multi.channel_set.programs[0], single.program)
        assert multi.designs[0].density == single.density
        assert (
            multi.designs[0].bandwidth_plan.bandwidth
            == single.bandwidth_plan.bandwidth
        )
        assert multi.designs[0].report.method == single.report.method

    def test_striped_channels_partition_the_catalogue(self):
        multi = design_multichannel_program(catalogue(), ChannelSpec(count=2))
        names = sorted(n for channel in multi.partition for n in channel)
        assert names == ["a", "b", "c", "d"]
        for channel, channel_names in enumerate(multi.partition):
            program = multi.channel_set.programs[channel]
            assert set(channel_names) == set(program.files)

    def test_replicated_channels_each_carry_everything(self):
        multi = design_multichannel_program(
            catalogue(), ChannelSpec(count=2, assignment="replicated")
        )
        for program in multi.channel_set.programs:
            assert set(program.files) == {"a", "b", "c", "d"}

    def test_bandwidth_is_harmonized_across_channels(self):
        multi = design_multichannel_program(catalogue(), ChannelSpec(count=3))
        bandwidths = {
            design.bandwidth_plan.bandwidth for design in multi.designs
        }
        assert len(bandwidths) == 1

    def test_runtime_knobs_reach_the_channel_set(self):
        multi = design_multichannel_program(
            catalogue(),
            ChannelSpec(
                count=2, assignment="replicated", tuning_cost=4, quorum=2
            ),
        )
        assert multi.channel_set.tuning_cost == 4
        assert multi.channel_set.quorum == 2

    def test_per_channel_fault_budgets_add_redundancy(self):
        plain = design_multichannel_program(
            catalogue(), ChannelSpec(count=2, assignment="replicated")
        )
        budgeted = design_multichannel_program(
            catalogue(),
            ChannelSpec(
                count=2, assignment="replicated", fault_budgets=(0, 1)
            ),
        )
        # Channel 0 keeps the plain block counts; channel 1 airs extra.
        for name in ("a", "b", "c", "d"):
            assert budgeted.channel_set.programs[0].block_count(
                name
            ) == plain.channel_set.programs[0].block_count(name)
            assert budgeted.channel_set.programs[1].block_count(
                name
            ) > plain.channel_set.programs[1].block_count(name)

    def test_generalized_files_design_per_channel(self):
        files = [
            GeneralizedFileSpec("g0", 2, (8, 24)),
            GeneralizedFileSpec("g1", 3, (12, 30)),
        ]
        multi = design_multichannel_program(files, ChannelSpec(count=2))
        assert multi.count == 2
        assert sorted(
            name for channel in multi.partition for name in channel
        ) == ["g0", "g1"]

    def test_densities_profile_matches_designs(self):
        multi = design_multichannel_program(catalogue(), ChannelSpec(count=2))
        assert multi.densities == tuple(
            design.density for design in multi.designs
        )

    def test_empty_catalogue_rejected(self):
        with pytest.raises(SpecificationError, match="at least one"):
            design_multichannel_program([], ChannelSpec(count=1))


class TestSolveOnce:
    """Channels with the same files, extra budget and forced bandwidth
    share one solve; the others still solve per channel."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counting(files, **kwargs):
            calls.append(tuple(file.name for file in files))
            return design_program(files, **kwargs)

        monkeypatch.setattr(multichannel, "design_program", counting)
        return calls

    def test_replicated_set_solves_once(self, solves):
        with obs.capture() as tel:
            multi = design_multichannel_program(
                catalogue(), ChannelSpec(count=3, assignment="replicated")
            )
        assert len(solves) == 1
        assert tel.value("design.channel.solves", channel=0) == 1
        assert tel.value("design.channel.solves", channel=1) is None
        programs = multi.channel_set.programs
        assert programs[0] is programs[1] is programs[2]
        assert multi.designs[0] is multi.designs[1] is multi.designs[2]
        # The shared design is the one each channel used to solve alone.
        alone = design_program(catalogue())
        assert same_program(programs[0], alone.program)
        assert multi.designs[0].density == alone.density
        assert multi.designs[0].report.method == alone.report.method

    def test_striped_set_solves_per_channel(self, solves):
        multi = design_multichannel_program(catalogue(), ChannelSpec(count=2))
        assert len(solves) >= 2
        assert sorted(set(solves)) == sorted(multi.partition)
        programs = multi.channel_set.programs
        assert programs[0] is not programs[1]

    def test_per_channel_budgets_solve_per_budget(self, solves):
        with obs.capture() as tel:
            multi = design_multichannel_program(
                catalogue(),
                ChannelSpec(
                    count=3, assignment="replicated", fault_budgets=(0, 1, 0)
                ),
            )
        # Budgets 0 and 1 solve apart; the budget-1 channel needs the
        # wider bandwidth, so channels 0 and 2 re-solve at it - once.
        assert [d.bandwidth_plan.bandwidth for d in multi.designs] == [2] * 3
        assert len(solves) == 3
        assert [
            tel.value("design.channel.solves", channel=c) for c in range(3)
        ] == [2, 1, None]
        programs = multi.channel_set.programs
        assert programs[0] is programs[2]
        assert programs[1] is not programs[0]

    def test_replicated_delay_table_is_the_single_channel_table(self):
        payload = {
            "name": "replicated",
            "files": [
                {"name": f"f{i}", "blocks": 2 + i % 2, "latency": 12 + 4 * i}
                for i in range(4)
            ],
            "delay_errors": 1,
        }
        single = BroadcastEngine(Scenario.from_dict(payload)).delay_table()
        replicated = BroadcastEngine(
            Scenario.from_dict(
                {**payload, "channels": {"count": 3,
                                         "assignment": "replicated"}}
            )
        ).delay_table()
        assert replicated == single
