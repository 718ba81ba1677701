"""ChannelSpec plumbing through Scenario, fingerprints, and the engine."""

import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import ReproError, SpecificationError
from repro.bdisk.builder import ProgramDesign
from repro.bdisk.multichannel import MultiChannelDesign
from repro.api.engine import BroadcastEngine, run_scenario
from repro.api.scenario import ChannelSpec, Scenario
from repro.sim.client import best_channel, retrieve_multichannel
from repro.sim.faults import AdversarialFaults

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Pinned pre-multichannel fingerprint: adding the channels feature must
#: not move the fingerprint of any scenario that does not use it.
AWACS_FINGERPRINT = (
    "1f72cdc5b3d66310e94042cebcb9459edb1658507784488b901d1c549f43b7fc"
)


def base_payload(**extra):
    payload = {
        "name": "chan-test",
        "block_size": 64,
        "files": [
            {"name": f"f{i}", "blocks": 2 + (i % 2), "latency": 12 + 4 * i}
            for i in range(6)
        ],
    }
    payload.update(extra)
    return payload


@st.composite
def explicit_scenarios(draw):
    """2-3 channels, 3-6 small files, each on a drawn set of channels."""
    count = draw(st.integers(2, 3))
    files, explicit = [], {}
    for index in range(draw(st.integers(3, 6))):
        blocks = draw(st.integers(1, 3))
        files.append({
            "name": f"f{index}",
            "blocks": blocks,
            "latency": blocks * draw(st.integers(3, 12)),
            "fault_budget": draw(st.integers(0, 2)),
        })
        explicit[f"f{index}"] = draw(
            st.lists(
                st.integers(0, count - 1), min_size=1, max_size=count,
                unique=True,
            )
        )
    for channel in range(count):  # every channel carries a file
        explicit[f"f{channel}"] = sorted({*explicit[f"f{channel}"], channel})
    return {
        "name": "drawn-explicit",
        "files": files,
        "channels": {
            "count": count,
            "assignment": "explicit",
            "explicit": explicit,
            "tuning_cost": draw(st.integers(0, 3)),
        },
        "delay_errors": draw(st.integers(0, 2)),
    }


#: A drawn set at tuning cost 1.  A client tuned to channel 1 at slot
#: 13 hears f1's other carrier, channel 0, a slot late, so it commits to
#: channel 1, whose next f1 service is 8 slots on: one loss costs 8.  At
#: cost 0 it would take channel 0, which airs f1 almost every slot (the
#: cost-0 table reads 2).
TUNED_LATE = {
    "name": "drawn-explicit",
    "files": [
        {"name": "f0", "blocks": 1, "latency": 6, "fault_budget": 0},
        {"name": "f1", "blocks": 1, "latency": 8, "fault_budget": 2},
        {"name": "f2", "blocks": 2, "latency": 22, "fault_budget": 1},
        {"name": "f3", "blocks": 2, "latency": 24, "fault_budget": 2},
        {"name": "f4", "blocks": 2, "latency": 6, "fault_budget": 0},
    ],
    "channels": {
        "count": 3,
        "assignment": "explicit",
        "explicit": {
            "f0": [0, 1, 2], "f1": [0, 1], "f2": [2], "f3": [1], "f4": [1],
        },
        "tuning_cost": 1,
    },
    "delay_errors": 2,
}


class TestChannelSpecRoundTrip:
    def test_json_round_trip_all_fields(self):
        spec = ChannelSpec(
            count=3,
            assignment="explicit",
            explicit={"a": (0,), "b": (1, 2)},
            partitioner="first-fit",
            fault_budgets=(0, 1, 2),
            tuning_cost=2,
            quorum=2,
        )
        clone = ChannelSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec

    def test_partial_dict_fills_defaults(self):
        spec = ChannelSpec.from_dict({"count": 2})
        assert spec == ChannelSpec(count=2)

    def test_runtime_knobs_are_not_design_payload(self):
        cheap = ChannelSpec(count=2, tuning_cost=0, quorum=1)
        dear = ChannelSpec(count=2, tuning_cost=9, quorum=2)
        assert cheap.design_payload() == dear.design_payload()

    def test_design_payload_tracks_topology(self):
        assert (
            ChannelSpec(count=2).design_payload()
            != ChannelSpec(count=3).design_payload()
        )
        assert (
            ChannelSpec(count=2).design_payload()
            != ChannelSpec(count=2, assignment="replicated").design_payload()
        )


class TestScenarioValidation:
    def test_striped_thinner_than_catalogue_rejected(self):
        with pytest.raises(SpecificationError, match="replicated"):
            Scenario.from_dict(base_payload(channels={"count": 7}))

    def test_explicit_unknown_file_rejected(self):
        with pytest.raises(SpecificationError, match="explicit"):
            Scenario.from_dict(
                base_payload(
                    channels={
                        "count": 2,
                        "assignment": "explicit",
                        "explicit": {"ghost": [0]},
                    }
                )
            )

    def test_quorum_must_fit_count(self):
        with pytest.raises(SpecificationError, match="quorum"):
            ChannelSpec(count=2, quorum=3)

    def test_channel_assignment_matches_design(self):
        scenario = Scenario.from_dict(
            base_payload(channels={"count": 2})
        )
        design = BroadcastEngine(scenario).design()
        assert scenario.channel_assignment() == dict(
            design.channel_set.assignment
        )

    def test_no_channels_means_empty_assignment(self):
        scenario = Scenario.from_dict(base_payload())
        assert scenario.channel_assignment() == {}


class TestFingerprint:
    def test_runtime_knob_sweeps_share_a_fingerprint(self):
        reference = Scenario.from_dict(
            base_payload(channels={"count": 2})
        ).design_fingerprint()
        for knobs in (
            {"tuning_cost": 5},
            {"quorum": 2, "assignment": "replicated"},
            {"tuning_cost": 3},
        ):
            if "assignment" in knobs:
                continue  # changes topology, not a runtime knob
            payload = base_payload(channels={"count": 2, **knobs})
            assert (
                Scenario.from_dict(payload).design_fingerprint()
                == reference
            ), knobs

    def test_topology_moves_the_fingerprint(self):
        base = Scenario.from_dict(
            base_payload(channels={"count": 2})
        ).design_fingerprint()
        for channels in (
            {"count": 3},
            {"count": 2, "assignment": "replicated"},
            {"count": 2, "partitioner": "round-robin"},
            {"count": 2, "fault_budgets": [0, 1]},
        ):
            other = Scenario.from_dict(
                base_payload(channels=channels)
            ).design_fingerprint()
            assert other != base, channels


class TestBackwardCompatibility:
    """Scenarios without a channels block behave exactly as before."""

    def example_payloads(self):
        for path in sorted(EXAMPLES.glob("scenario_*.json")):
            if path.name == "scenario_multichannel.json":
                continue  # the new multichannel worked example
            yield path.name, json.loads(path.read_text())

    def test_examples_load_without_channels(self):
        for name, payload in self.example_payloads():
            scenario = Scenario.from_dict(payload)
            assert scenario.channels is None, name
            assert "channels" not in scenario.to_dict(), name

    def test_examples_round_trip_identically(self):
        for name, payload in self.example_payloads():
            scenario = Scenario.from_dict(payload)
            again = Scenario.from_dict(scenario.to_dict())
            assert again.to_dict() == scenario.to_dict(), name
            assert (
                again.design_fingerprint()
                == scenario.design_fingerprint()
            ), name

    def test_awacs_fingerprint_is_pinned(self):
        payload = json.loads(
            (EXAMPLES / "scenario_awacs.json").read_text()
        )
        scenario = Scenario.from_dict(payload)
        assert scenario.design_fingerprint() == AWACS_FINGERPRINT

    def test_examples_design_single_channel(self):
        for name, payload in self.example_payloads():
            design = BroadcastEngine(Scenario.from_dict(payload)).design()
            assert isinstance(design, ProgramDesign), name
            assert not isinstance(design, MultiChannelDesign), name


class TestEngineMultichannel:
    def test_design_type_follows_channels(self):
        multi = BroadcastEngine(
            Scenario.from_dict(base_payload(channels={"count": 2}))
        ).design()
        assert isinstance(multi, MultiChannelDesign)
        single = BroadcastEngine(
            Scenario.from_dict(base_payload())
        ).design()
        assert isinstance(single, ProgramDesign)

    def test_injected_design_type_is_checked(self):
        plain = Scenario.from_dict(base_payload())
        multi = Scenario.from_dict(base_payload(channels={"count": 2}))
        plain_design = BroadcastEngine(plain).design()
        multi_design = BroadcastEngine(multi).design()
        with pytest.raises(SpecificationError):
            BroadcastEngine(plain, design=multi_design)
        with pytest.raises(SpecificationError):
            BroadcastEngine(multi, design=plain_design)

    def test_run_scenario_end_to_end(self):
        result = run_scenario(
            base_payload(
                channels={"count": 2, "tuning_cost": 1},
                delay_errors=1,
                workload={"requests": 30, "horizon": 150, "seed": 3},
            )
        )
        assert result.multichannel
        assert result.stats.channels is not None
        assert len(result.stats.channels) == 2
        assert result.simulation is not None
        assert result.payload_checks
        assert all(result.payload_checks.values())
        payload = json.loads(json.dumps(result.to_dict()))
        assert len(payload["stats"]["channels"]) == 2
        assert "channel 0" in result.summary()

    @given(drawn=explicit_scenarios())
    @example(drawn=TUNED_LATE)
    @settings(max_examples=25, deadline=None)
    def test_delay_table_tracks_chosen_channel(
        self, drawn, chosen_channel_game
    ):
        # At every phase, tuned to any channel, the client commits to
        # the carrier it finishes on first without faults (re-tuning
        # costs the scenario's tuning_cost); the table is the worst
        # case there.
        cost = drawn["channels"]["tuning_cost"]
        try:
            engine = BroadcastEngine(Scenario.from_dict(drawn))
            channels = engine.design().channel_set
        except ReproError:
            assume(False)
        assert channels.tuning_cost == cost
        sizes = {spec["name"]: spec["blocks"] for spec in drawn["files"]}
        for entry in engine.delay_table():
            name, m, errors = entry.file, sizes[entry.file], entry.errors
            programs = [
                channels.programs[channel]
                for channel in channels.channels_for(name)
            ]
            assert entry.delay == chosen_channel_game(
                programs, name, m, errors, tuning_cost=cost
            )
            if any(p.block_count(name) < m + errors for p in programs):
                continue
            # Rotation width m + j: killing the first j services heard
            # is the adversary's best, in the walker as in the table.
            worst = 0
            period = math.lcm(*(p.data_cycle_length for p in programs))
            for start, tuned in itertools.product(
                range(period), range(channels.count)
            ):
                channel, listen, _, clean = best_channel(
                    channels, name, m, start=start, tuned=tuned
                )
                index = channels.programs[channel].index
                occurrences = index.occurrences_from(name, listen)
                heard = [
                    slot for (slot, _), _ in zip(occurrences, range(errors))
                ]
                faults = [None] * channels.count
                faults[channel] = AdversarialFaults(heard)
                retrieval = retrieve_multichannel(
                    channels, name, m, start=start, tuned=tuned,
                    faults=faults,
                )
                assert retrieval.channel == channel
                worst = max(worst, retrieval.finish_slot - clean)
            assert worst == entry.delay

    def test_replicated_table_is_the_single_channel_table(self):
        single = BroadcastEngine(
            Scenario.from_dict(base_payload(delay_errors=2))
        ).delay_table()
        for tuning_cost in (0, 2):
            replicated = base_payload(
                channels={
                    "count": 3, "assignment": "replicated",
                    "tuning_cost": tuning_cost,
                },
                delay_errors=2,
            )
            assert BroadcastEngine(
                Scenario.from_dict(replicated)
            ).delay_table() == single

    def test_k1_simulation_is_bit_identical(self):
        workload = {"requests": 50, "horizon": 200, "seed": 9}
        faults = {"kind": "bernoulli", "probability": 0.1, "seed": 4}
        plain = run_scenario(
            base_payload(workload=workload, faults=faults)
        ).simulation
        multi = run_scenario(
            base_payload(
                workload=workload, faults=faults, channels={"count": 1}
            )
        ).simulation
        assert multi.summary == plain.summary
        assert multi.deadline_misses == plain.deadline_misses
        for mine, theirs in zip(multi.retrievals, plain.retrievals):
            assert mine.completed == theirs.completed
            assert mine.latency == theirs.latency
            assert mine.finish_slot == theirs.finish_slot or (
                not theirs.completed and theirs.finish_slot is None
            )
