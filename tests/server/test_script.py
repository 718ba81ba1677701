"""Tests for scripted mutation timelines and the AWACS acceptance run."""

import dataclasses
import json

import pytest

from repro.api.scenario import Scenario
from repro.bdisk.file import FileSpec
from repro.errors import SpecificationError
from repro.ida.aida import RedundancyPolicy
from repro.server.asrun import read_asrun
from repro.server.mutations import FaultBudgetBump, ModeChange
from repro.server.script import MutationScript, ScriptEntry, run_script
from repro.server.server import BroadcastServer, ServerResult
from repro.sweep.cache import SolveCache
from repro.traffic.spec import TrafficSpec


TIMELINE = [
    {"at_slot": 50, "mutation": {"kind": "mode_change", "mode": "combat"}},
    {
        "at_slot": 300,
        "mutation": {"kind": "mode_change", "mode": "surveillance"},
    },
]


def awacs_scenario() -> Scenario:
    policy = RedundancyPolicy({
        "surveillance": {"pos": 0, "map": 0},
        "combat": {"pos": 1, "map": 0},
    })
    return Scenario(
        name="awacs-live",
        files=(FileSpec("pos", 2, 5), FileSpec("map", 2, 8)),
        redundancy=policy,
        mode="surveillance",
        traffic=TrafficSpec(
            clients=12, requests_per_client=20, duration=600,
            think_time=2, seed=7,
        ),
    )


class TestMutationScript:
    def test_parses_a_timeline_list(self):
        script = MutationScript.from_payload(TIMELINE)
        assert len(script) == 2
        assert script.entries[0].at_slot == 50
        assert script.entries[0].mutation == ModeChange("combat")

    def test_accepts_a_mutations_envelope(self):
        script = MutationScript.from_payload({"mutations": TIMELINE})
        assert len(script) == 2

    def test_round_trips_to_payload(self):
        script = MutationScript.from_payload(TIMELINE)
        assert script.to_payload() == TIMELINE
        again = MutationScript.from_payload(script.to_payload())
        assert again == script

    def test_from_file(self, tmp_path):
        path = tmp_path / "mutations.json"
        path.write_text(json.dumps(TIMELINE))
        assert MutationScript.from_file(path) == MutationScript.from_payload(
            TIMELINE
        )

    def test_missing_file_and_bad_json_rejected(self, tmp_path):
        with pytest.raises(SpecificationError, match="cannot read"):
            MutationScript.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[{,")
        with pytest.raises(SpecificationError, match="not valid JSON"):
            MutationScript.from_file(bad)

    def test_rejects_out_of_order_slots(self):
        entries = [
            ScriptEntry(300, ModeChange("surveillance")),
            ScriptEntry(50, ModeChange("combat")),
        ]
        with pytest.raises(SpecificationError, match="slot order"):
            MutationScript(tuple(entries))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("not a list", "must be a list"),
            ([42], "must be an object"),
            ([{"at_slot": -1, "mutation": {"kind": "mode_change"}}],
             "at_slot must be >= 0"),
            ([{"at_slot": True, "mutation": {"kind": "mode_change"}}],
             "at_slot must be an integer"),
            ([{"at_slot": 5}], r"missing required keys \['mutation'\]"),
            ([{"at_slot": 5, "mutation": {}, "extra": 1}], "unknown keys"),
            ({"mutations": [], "extra": 1}, "unknown keys"),
        ],
    )
    def test_rejects_malformed_payloads(self, payload, message):
        with pytest.raises(SpecificationError, match=message):
            MutationScript.from_payload(payload)


class TestRunScript:
    def test_awacs_mode_cycle_acceptance(self, tmp_path):
        # The headline acceptance run: surveillance -> combat ->
        # surveillance with live traffic, written to an as-run log.
        log_path = tmp_path / "asrun.jsonl"
        cache = SolveCache()
        result = run_script(
            awacs_scenario(),
            MutationScript.from_payload(TIMELINE),
            cache=cache,
            log_path=log_path,
        )

        # Both splices committed, zero temporal-constraint violations.
        assert len(result.splice_slots) == 2
        assert result.violations == ()
        assert result.splice_slots[0] > 50
        assert result.splice_slots[1] > 300
        # The revert re-solves a design already in the cache.
        assert result.cache_stats["hits"] == 1
        assert result.epochs[2]["cache_hit"]
        assert result.epochs[0]["fingerprint"] == (
            result.epochs[2]["fingerprint"]
        )

        # The as-run log round-trips and diverges from the outgoing
        # plan only at the declared splice slots.
        records = read_asrun(log_path)
        assert result.asrun_path == str(log_path)
        splices = [r for r in records if r["type"] == "splice"]
        assert [r["slot"] for r in splices] == list(result.splice_slots)
        for record in splices:
            witness = record["window"]
            split = record["slot"] - witness["from_slot"]
            assert witness["planned"][:split] == witness["aired"][:split]
            assert witness["planned"][split:] != witness["aired"][split:]
        signoff = records[-1]
        assert signoff["type"] == "sign-off"
        assert signoff["violations"] == 0
        assert signoff["splices"] == list(result.splice_slots)

        # Result payload and report stay JSON-able / printable.
        json.dumps(result.to_dict())
        assert "splices at" in result.report()

    @pytest.mark.parametrize("until", [None, 50, 320])
    def test_equals_the_advance_apply_loop(self, until):
        script = MutationScript.from_payload(TIMELINE + [
            {"at_slot": 400,
             "mutation": {"kind": "fault_budget", "name": "map",
                          "delta": 1}},
        ])
        scripted = run_script(awacs_scenario(), script, until=until)
        server = BroadcastServer(awacs_scenario())
        for entry in script.entries:
            if until is not None and entry.at_slot > until:
                break
            server.advance(until=entry.at_slot)
            server.apply(entry.mutation)
        server.advance(until=until)
        by_hand = server.close()
        for field in dataclasses.fields(ServerResult):
            if field.name == "metrics":
                assert vars(scripted.metrics) == vars(by_hand.metrics)
            else:
                assert getattr(scripted, field.name) == getattr(
                    by_hand, field.name
                ), field.name
        # Every client event counts once; mutations are not events.
        if until is None:
            assert scripted.events_processed == 2 * 12 * 20

    def test_runtime_only_mutation_is_a_guaranteed_hit(self):
        # A fault-budget bump that the design absorbs without a new
        # schedule (budget already covered) still splices; an untouched
        # revert of the same scenario fingerprint hits the cache.
        scenario = awacs_scenario()
        script = MutationScript.from_payload([
            {"at_slot": 10,
             "mutation": {"kind": "mode_change", "mode": "combat"}},
            {"at_slot": 200,
             "mutation": {"kind": "mode_change", "mode": "surveillance"}},
            {"at_slot": 400,
             "mutation": {"kind": "mode_change", "mode": "combat"}},
        ])
        result = run_script(scenario, script)
        assert result.cache_stats == {
            "hits": 2, "misses": 2, "solves": 2, "lock_waits": 0,
            "entries": 2,
        }
        assert len(result.epochs) == 4

    def test_until_bounds_the_run(self):
        scenario = awacs_scenario()
        result = run_script(
            scenario, MutationScript(()), until=100
        )
        assert result.final_slot == 100
        assert result.splice_slots == ()

    def test_unsafe_script_propagates_refusal(self):
        # Removing a file clients still request cannot be spliced into
        # a live run safely when in-flight budgets need it; here the
        # mutation itself is rejected by scenario validation instead
        # (the catalogue floor), which must surface before airing.
        scenario = Scenario(
            name="tiny", files=(FileSpec("a", 2, 6),)
        )
        script = MutationScript.from_payload([
            {"at_slot": 4,
             "mutation": {"kind": "remove_file", "name": "a"}},
        ])
        with pytest.raises(SpecificationError):
            run_script(scenario, script)

    def test_inapplicable_mutation_fails_before_airing(self, tmp_path):
        log = tmp_path / "asrun.jsonl"
        script = MutationScript.from_payload([
            {"at_slot": 400, "mutation": {
                "kind": "temporal_edit", "name": "pos", "update_period": 4,
            }},
        ])
        with pytest.raises(SpecificationError) as raised:
            run_script(awacs_scenario(), script, log_path=log)
        assert str(raised.value) == (
            "mutations[0]: temporal_edit 'pos': scenario 'awacs-live' "
            "has no temporal spec"
        )
        assert not log.exists()

    def test_entries_apply_in_order_before_airing(self, tmp_path):
        # The second entry is checked against the catalogue the first
        # one leaves.
        log = tmp_path / "asrun.jsonl"
        script = MutationScript.from_payload([
            {"at_slot": 50,
             "mutation": {"kind": "remove_file", "name": "map"}},
            {"at_slot": 90,
             "mutation": {"kind": "fault_budget", "name": "map",
                          "delta": 1}},
        ])
        with pytest.raises(SpecificationError, match=r"^mutations\[1\]: "):
            run_script(awacs_scenario(), script, log_path=log)
        assert not log.exists()

    def test_negative_until_fails_before_airing(self, tmp_path):
        log = tmp_path / "asrun.jsonl"
        with pytest.raises(SpecificationError) as raised:
            run_script(
                awacs_scenario(), MutationScript.from_payload(TIMELINE),
                log_path=log, until=-5,
            )
        assert str(raised.value) == "until must be >= 0: -5"
        assert not log.exists()

    def test_entries_past_until_are_not_checked(self):
        script = MutationScript.from_payload([
            {"at_slot": 400, "mutation": {
                "kind": "temporal_edit", "name": "pos", "update_period": 4,
            }},
        ])
        result = run_script(awacs_scenario(), script, until=100)
        assert result.final_slot == 100
        assert result.splice_slots == ()

    def test_fault_budget_bump_timeline(self):
        # A bump mid-run re-solves to a deeper rotation and splices
        # without tearing the catalogue.
        scenario = Scenario(
            name="bump",
            files=(FileSpec("a", 2, 8), FileSpec("b", 2, 8)),
            traffic=TrafficSpec(
                clients=4, requests_per_client=6, duration=200,
                think_time=3, seed=5,
            ),
        )
        script = MutationScript([
            ScriptEntry(20, FaultBudgetBump("a", 1)),
        ])
        result = run_script(scenario, script)
        assert len(result.splice_slots) == 1
        assert result.violations == ()
        assert result.epochs[1]["data_cycle"] >= (
            result.epochs[0]["data_cycle"]
        )
