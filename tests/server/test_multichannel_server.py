"""Online server over a channel set: per-channel schedules and splices."""

import hashlib
import json

import pytest

from repro.api.scenario import ChannelSpec, FaultSpec, Scenario
from repro.bdisk.file import FileSpec
from repro.errors import ReproError, SpecificationError
from repro.ida.aida import RedundancyPolicy
from repro.server.mutations import (
    AddFile,
    FaultBudgetBump,
    ModeChange,
    RemoveFile,
)
from repro.server.server import BroadcastServer
from repro.traffic.spec import TrafficSpec


def multichannel_scenario(**overrides) -> Scenario:
    params = dict(
        name="mc-server",
        files=(
            FileSpec("a", 2, 10),
            FileSpec("b", 3, 15),
            FileSpec("c", 2, 20),
            FileSpec("d", 4, 30),
        ),
        channels=ChannelSpec(count=2),
    )
    params.update(overrides)
    return Scenario(**params)


class TestSignOn:
    def test_one_schedule_per_channel(self):
        server = BroadcastServer(multichannel_scenario())
        assert len(server.schedules) == 2
        assert server.schedule is server.schedules[0]
        carried = set()
        for schedule in server.schedules:
            carried |= set(schedule.on_air.program.files)
        assert carried == {"a", "b", "c", "d"}
        server.close()

    def test_live_traffic_rejected(self):
        scenario = multichannel_scenario(
            traffic=TrafficSpec(clients=2)
        )
        with pytest.raises(SpecificationError, match="channel set"):
            BroadcastServer(scenario)

    def test_epoch_summary_carries_channel_shape(self):
        server = BroadcastServer(multichannel_scenario())
        result = server.close()
        epoch = result.epochs[0]
        assert epoch["channels"] == 2
        assert len(epoch["start_slots"]) == 2


class TestMutations:
    def test_add_then_remove_splices_every_channel(self):
        server = BroadcastServer(multichannel_scenario())
        server.advance(until=10)
        added = server.apply(
            AddFile(file={"name": "e", "blocks": 2, "latency": 25})
        )
        assert len(added["channel_splice_slots"]) == 2
        assert added["splice_slot"] == added["channel_splice_slots"][0]
        removed = server.apply(RemoveFile(name="e"))
        assert len(removed["channel_splice_slots"]) == 2
        result = server.close()
        assert len(result.mutations) == 2
        # The union of per-channel splice slots lands in the result.
        committed = {
            slot
            for record in (added, removed)
            for slot in record["channel_splice_slots"]
        }
        assert committed <= set(result.splice_slots)
        assert result.resplices == 0
        assert result.violations == ()

    def test_epochs_stack_per_mutation(self):
        server = BroadcastServer(multichannel_scenario())
        server.apply(
            AddFile(file={"name": "e", "blocks": 2, "latency": 25})
        )
        result = server.close()
        assert len(result.epochs) == 2
        assert all(epoch["channels"] == 2 for epoch in result.epochs)

    def test_splices_respect_cycle_boundaries_per_channel(self):
        server = BroadcastServer(multichannel_scenario())
        outgoing = server.schedules
        cycles = [
            schedule.on_air.program.data_cycle_length
            for schedule in outgoing
        ]
        record = server.apply(
            AddFile(file={"name": "e", "blocks": 2, "latency": 25})
        )
        for channel, slot in enumerate(record["channel_splice_slots"]):
            start = outgoing[channel].on_air.start
            assert (slot - start) % cycles[channel] == 0
        server.close()

    def test_channel_count_is_fixed_at_sign_on(self):
        import dataclasses

        class DropChannels:
            """A hostile delta that tries to re-plan the topology."""

            def apply(self, scenario):
                return dataclasses.replace(scenario, channels=None)

            def describe(self):
                return "drop-channels"

        server = BroadcastServer(multichannel_scenario())
        with pytest.raises(SpecificationError, match="sign-on"):
            server.apply(DropChannels())
        server.close()


class TestAsRun:
    def test_log_has_per_channel_splice_records(self, tmp_path):
        from repro.server.asrun import read_asrun

        log_path = tmp_path / "asrun.jsonl"
        server = BroadcastServer(
            multichannel_scenario(), log_path=log_path
        )
        server.advance(until=5)
        server.apply(
            AddFile(file={"name": "e", "blocks": 2, "latency": 25})
        )
        result = server.close()
        records = read_asrun(log_path)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "on-air"
        assert kinds[-1] == "sign-off"
        splices = [r for r in records if r["type"] == "splice"]
        assert sorted(r["channel"] for r in splices) == [0, 1]
        mutation = next(r for r in records if r["type"] == "mutation")
        assert mutation["channels"] == 2
        signoff = records[-1]
        assert signoff["splices"] == list(result.splice_slots)

    def test_sign_off_follows_every_on_air_record(self):
        """A mutation whose splices land after ``now``: the station airs
        through the last of them before it signs off."""
        server = BroadcastServer(multichannel_scenario())
        server.advance(until=5)
        record = server.apply(
            AddFile(file={"name": "e", "blocks": 2, "latency": 25})
        )
        result = server.close()
        records = server.log.records
        last = max(record["channel_splice_slots"])
        assert last > server.now == 5
        assert records[-1]["type"] == "sign-off"
        assert records[-1]["slot"] == result.final_slot == last
        on_air = [r["slot"] for r in records if r["type"] == "on-air"]
        assert max(on_air) == last


def pinned_runs():
    """Advance/apply runs over striped and replicated sets of two and
    three channels, with every catalogue mutation kind and a refusal."""
    bernoulli = FaultSpec("bernoulli", probability=0.05, seed=3)
    added = AddFile(file={"name": "e", "blocks": 2, "latency": 25})
    policy = RedundancyPolicy({
        "surveillance": {"a": 0},
        "combat": {"d": 1},
    })
    return {
        "striped-2-clean": (multichannel_scenario(), 64, [
            (10, added),
            (60, FaultBudgetBump("b", 1)),
            (150, RemoveFile("e")),
        ]),
        "striped-3-bernoulli": (
            multichannel_scenario(
                channels=ChannelSpec(count=3), faults=bernoulli
            ),
            64,
            [
                (10, added),
                (60, FaultBudgetBump("b", 1)),
                (150, RemoveFile("e")),
                (200, FaultBudgetBump("a", 2)),
            ],
        ),
        "replicated-3-refusal": (
            multichannel_scenario(
                channels=ChannelSpec(count=3, assignment="replicated"),
                faults=bernoulli,
            ),
            2,
            [
                (10, added),
                (60, FaultBudgetBump("b", 1)),
                (150, FaultBudgetBump("b", -1)),
            ],
        ),
        "replicated-2-modes": (
            multichannel_scenario(
                channels=ChannelSpec(count=2, assignment="replicated"),
                redundancy=policy,
                mode="surveillance",
            ),
            64,
            [
                (20, ModeChange("combat")),
                (130, FaultBudgetBump("d", 1)),
                (260, ModeChange("surveillance")),
            ],
        ),
    }


def drive(name):
    """One pinned run: its result, every ``apply()`` outcome (the
    record, or the refusal's type and text), and the as-run records."""
    scenario, max_boundaries, steps = pinned_runs()[name]
    server = BroadcastServer(scenario, max_boundaries=max_boundaries)
    applied = []
    for slot, mutation in steps:
        server.advance(until=slot)
        try:
            applied.append(server.apply(mutation))
        except ReproError as error:
            applied.append(f"{type(error).__name__}: {error}")
    server.advance()
    result = server.close().to_dict()
    result["asrun"] = None
    return result, applied, server.log.records


#: sha256 of each pinned run's ``[result, applied, log records]`` JSON,
#: keys in the order the server wrote them, recorded on the server
#: whose channel sets took their own mutation path.  Three were re-pinned
#: when the sign-off moved to the last committed splice; only
#: ``final_slot`` and the sign-off record's slot changed (150 -> 210,
#: 200 -> 480 and 260 -> 300).
PINNED_DIGESTS = {
    "striped-2-clean":
        "d74d6a1b5561683e7fa269f2c2553e6884576d6d72231fa47b6709a2fa021601",
    "striped-3-bernoulli":
        "fa23ab547f9a027d64e02ef158496212f09c91db28c14e6b7f2f62e9361649ce",
    "replicated-3-refusal":
        "dc2220e5f7b92277aaede6ea9706ef7e1abba6b4a48948b7eac451d451878bb8",
    "replicated-2-modes":
        "8f09ae9c70820e89d64c41da1de56729cd28a966520bca3d8edae3a1516ab290",
}


class TestPinnedRuns:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_run_digest_is_pinned(self, name):
        payload = json.dumps(list(drive(name)))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == PINNED_DIGESTS[name]

    def test_refusal_text_is_pinned(self):
        _, applied, _ = drive("replicated-3-refusal")
        assert applied[0] == (
            "SimulationError: no safe splice boundary within 2 data "
            "cycles of slot 11 (cycle 60 slots, up to 64 phase rotations "
            "each); first rejection: a from slot 54 aborts, budget 10"
        )
        assert applied[1]["channel_splice_slots"] == [120, 120, 120]
        assert applied[1]["rejected_boundaries"] == [[120], [120], [120]]
        assert applied[2].startswith(
            "SimulationError: no safe splice boundary within 2 data "
            "cycles of slot 151 (cycle 60 slots, up to 60 phase rotations"
        )
