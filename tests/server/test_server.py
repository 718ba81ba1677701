"""End-to-end tests for the online broadcast server."""

import hashlib
import json

import pytest

from repro.api.engine import BroadcastEngine
from repro.api.scenario import FaultSpec, Scenario
from repro.bdisk.file import FileSpec
from repro.errors import SpecificationError
from repro.ida.aida import RedundancyPolicy
from repro.rtdb.spec import TemporalItemSpec, TemporalSpec, TransactionSpec
from repro.server.mutations import (
    AddFile,
    FaultBudgetBump,
    ModeChange,
    RemoveFile,
    TemporalEdit,
)
from repro.server.server import BroadcastServer
from repro.sweep.cache import SolveCache
from repro.traffic.simulate import ENGINES, simulate_traffic
from repro.traffic.spec import TrafficSpec


def traffic_scenario(**overrides) -> Scenario:
    params = dict(
        name="traffic",
        files=(FileSpec("a", 2, 6), FileSpec("b", 3, 9)),
        traffic=TrafficSpec(
            clients=6, requests_per_client=8, duration=400,
            think_time=5, seed=11,
        ),
    )
    params.update(overrides)
    return Scenario(**params)


def moded_scenario(**overrides) -> Scenario:
    policy = RedundancyPolicy({
        "surveillance": {"pos": 0, "map": 0},
        "combat": {"pos": 1, "map": 0},
    })
    params = dict(
        name="awacs",
        files=(FileSpec("pos", 2, 5), FileSpec("map", 2, 8)),
        redundancy=policy,
        mode="surveillance",
        traffic=TrafficSpec(
            clients=12, requests_per_client=20, duration=600,
            think_time=2, seed=7,
        ),
    )
    params.update(overrides)
    return Scenario(**params)


def temporal_scenario(**overrides) -> Scenario:
    temporal = TemporalSpec(
        slot_ms=10,
        items=(
            TemporalItemSpec("tracks", 2, max_age_ms=400),
            TemporalItemSpec("terrain", 2, max_age_ms=2000),
        ),
        update_periods={"tracks": 60, "terrain": 200},
        transactions=(
            TransactionSpec("scan", ("tracks",), deadline_slots=40),
            TransactionSpec(
                "survey", ("tracks", "terrain"), deadline_slots=200
            ),
        ),
    )
    params = dict(
        name="temporal",
        files=(),
        temporal=temporal,
        traffic=TrafficSpec(
            clients=8, requests_per_client=4, duration=300,
            think_time=4, seed=3,
        ),
    )
    params.update(overrides)
    return Scenario(**params)


#: Channels every parity case runs on: clean, i.i.d. and bursty.
PARITY_CHANNELS = (
    FaultSpec(),
    FaultSpec("bernoulli", probability=0.1, seed=5),
    FaultSpec("burst", p_enter=0.05, p_exit=0.3, seed=5),
)


def offline_and_live(scenario):
    """Metrics of the offline traffic run on each engine and of a
    mutation-free live server run of ``scenario``, all on the
    scenario's channel."""
    engine = BroadcastEngine(scenario)
    design = engine.design()
    offline = {
        name: simulate_traffic(
            design.program,
            [spec.name for spec in scenario.files],
            scenario.traffic,
            file_sizes={s.name: s.blocks for s in scenario.files},
            deadlines=engine._deadlines(design),
            faults=scenario.faults,
            temporal=scenario.temporal,
            engine=name,
        ).metrics
        for name in ENGINES
    }
    server = BroadcastServer(scenario)
    server.advance()
    return offline, server.close().metrics


class TestZeroMutationParity:
    """With nothing mutating, live sessions replay both offline
    engines exactly."""

    def test_plain_traffic_is_bit_identical_to_offline(self):
        for faults in PARITY_CHANNELS:
            offline, lm = offline_and_live(traffic_scenario(faults=faults))
            for engine, om in offline.items():
                case = (faults.kind, engine)
                assert (lm.requests, lm.completions, lm.aborts,
                        lm.deadline_misses) == (
                    om.requests, om.completions, om.aborts,
                    om.deadline_misses,
                ), case
                assert lm.counts == om.counts, case
                assert lm.summary() == om.summary(), case

    def test_temporal_traffic_is_bit_identical_to_offline(self):
        for faults in PARITY_CHANNELS:
            offline, lm = offline_and_live(temporal_scenario(faults=faults))
            for engine, om in offline.items():
                case = (faults.kind, engine)
                assert (lm.requests, lm.completions, lm.aborts,
                        lm.deadline_misses) == (
                    om.requests, om.completions, om.aborts,
                    om.deadline_misses,
                ), case
                assert (lm.item_reads, lm.stale_reads,
                        lm.torn_discards) == (
                    om.item_reads, om.stale_reads, om.torn_discards
                ), case
                assert lm.counts == om.counts, case
            # Not vacuous: versioned walks complete, and some tear.
            assert lm.completions > 0, faults.kind
            assert lm.item_reads > 0, faults.kind
            assert lm.torn_discards > 0, faults.kind


class TestModeChangeRun:
    def test_mode_cycle_with_live_traffic(self, tmp_path):
        log_path = tmp_path / "asrun.jsonl"
        cache = SolveCache()
        server = BroadcastServer(
            moded_scenario(), cache=cache, log_path=log_path
        )
        server.advance(until=50)
        first = server.apply(ModeChange("combat"))
        assert not first["cache_hit"]
        assert first["violations"] == []
        server.advance(until=300)
        second = server.apply(ModeChange("surveillance"))
        # The revert re-solves an already-seen design: warm-start hit.
        assert second["cache_hit"]
        assert second["violations"] == []
        server.advance()
        result = server.close()

        assert result.splice_slots == (
            first["splice_slot"], second["splice_slot"]
        )
        assert result.violations == ()
        assert len(result.epochs) == 3
        assert result.epochs[2]["cache_hit"]
        assert cache.stats()["hits"] == 1
        # Metrics split per epoch and merge to the whole run.
        per_epoch = sum(e["metrics"]["requests"] for e in result.epochs)
        assert per_epoch == result.metrics.requests
        assert result.metrics.requests == 12 * 20

    def test_epoch_tables_switch_at_the_splice(self):
        server = BroadcastServer(moded_scenario(traffic=None))
        server.advance(until=10)
        record = server.apply(ModeChange("combat"))
        boundary = record["splice_slot"]
        before = server.schedule.segment_at(boundary - 1)
        after = server.schedule.segment_at(boundary)
        assert before.fingerprint != after.fingerprint
        assert server.scenario.mode == "combat"

    def test_mutation_provenance_record_shape(self):
        server = BroadcastServer(moded_scenario(traffic=None))
        record = server.apply(ModeChange("combat"))
        assert record["at_slot"] == 0
        assert record["mutation"]["kind"] == "mode_change"
        assert record["splice_slot"] > 0
        assert isinstance(record["phase_offset"], int)
        assert isinstance(record["rejected_boundaries"], list)


class TestResplice:
    def test_inflight_retrieval_is_rewalked_across_the_splice(self):
        # One non-thinking client on one file of m = 2 blocks aired as
        # 3 in rotation (cycle 3): its first read finishes at slot 1,
        # so its second issues at slot 2 = cycle - 1 and must span the
        # boundary at slot 3, where the splice lands (not_before = 3).
        scenario = Scenario(
            name="solo",
            files=(FileSpec("a", 2, 4, fault_budget=1),),
            traffic=TrafficSpec(
                clients=1, requests_per_client=2, duration=10,
                think_time=0, seed=1, arrival="deterministic",
            ),
        )
        server = BroadcastServer(scenario)
        cycle = server.schedule.on_air.program.data_cycle_length
        # Issue, finish, and the issue at cycle - 1.
        assert server.advance(until=cycle - 1) == 3
        record = server.apply(
            AddFile({"name": "b", "blocks": 2, "latency": 8})
        )
        assert record["splice_slot"] == cycle
        assert record["respliced"] == 1
        assert record["violations"] == []
        server.advance()
        result = server.close()
        assert result.resplices == 1
        # The re-walked read still completed and was recorded.
        assert result.metrics.requests == 2
        assert result.metrics.aborts == 0
        assert result.events_processed == 4

    def test_violations_are_accounted_and_logged(self):
        # Every client reads "a" (all the popularity mass is on it).
        # Client 1 arrives at slot 9 and its read would finish at 14,
        # within the budget of 6; removing "a" at slot 9 is not checked
        # by the predicate (only carried files are), so the splice
        # lands at the next boundary, 12, and the re-walked read aborts.
        scenario = Scenario(
            name="pair",
            files=(FileSpec("a", 2, 6), FileSpec("b", 1, 4)),
            traffic=TrafficSpec(
                clients=2, requests_per_client=1, duration=18,
                think_time=0, seed=1, arrival="deterministic",
                popularity="hotcold", hot_fraction=0.5, hot_weight=1.0,
            ),
        )
        server = BroadcastServer(scenario)
        assert server.schedule.on_air.program.data_cycle_length == 12
        server.advance(until=9)
        record = server.apply(RemoveFile("a"))
        violation = {
            "splice_slot": 12, "file": "a", "start": 9,
            "budget_slots": 6, "old_latency": 6, "new_latency": None,
        }
        assert record["splice_slot"] == 12
        assert record["respliced"] == 1
        assert record["violations"] == [violation]
        assert server.violations == (violation,)
        logged = [r for r in server.log.records if r["type"] == "violation"]
        assert logged == [{"type": "violation", "slot": 12, **violation}]
        server.advance()
        result = server.close()
        assert result.violations == (violation,)
        assert result.metrics.requests == 2
        assert result.metrics.aborts == 1


def pinned_runs():
    """Advance/apply runs over both population kinds, all three
    channels and every mutation kind, with re-walks and a violation."""
    pair = Scenario(
        name="pair",
        files=(FileSpec("a", 2, 6), FileSpec("b", 1, 4)),
        faults=FaultSpec("bernoulli", probability=0.05, seed=9),
        traffic=TrafficSpec(
            clients=12, requests_per_client=5, duration=60,
            think_time=1, seed=4, arrival="deterministic",
        ),
    )
    return {
        "modes-clean": (moded_scenario(), [
            (50, ModeChange("combat")),
            (200, FaultBudgetBump("map", 1)),
            (300, ModeChange("surveillance")),
        ]),
        "catalogue-bernoulli": (traffic_scenario(faults=PARITY_CHANNELS[1]), [
            (40, FaultBudgetBump("b", 1)),
            (100, AddFile({"name": "c", "blocks": 1, "latency": 18})),
            (220, RemoveFile("a")),
        ]),
        "temporal-burst": (temporal_scenario(faults=PARITY_CHANNELS[2]), [
            (30, TemporalEdit("terrain", update_period=150)),
            (120, AddFile(
                {"name": "weather", "blocks": 1, "max_age_ms": 3000},
                update_period=150,
            )),
            (250, RemoveFile("weather")),
        ]),
        "removal-bernoulli": (pair, [
            (9, RemoveFile("a")),
            (30, AddFile({"name": "a", "blocks": 2, "latency": 6})),
            (45, FaultBudgetBump("b", 1)),
        ]),
    }


#: sha256 of each pinned run's sorted-key ``ServerResult.to_dict()``
#: JSON, recorded on the event-heap implementation the per-client loop
#: replaced.  ``temporal-burst`` was re-pinned when the sign-off moved
#: to the last committed splice: its ``final_slot`` went from 622 to
#: 2720, and nothing else in the payload changed.
PINNED_DIGESTS = {
    "modes-clean":
        "f7ad81b115e266d7c60f1fb1293dfccc004f09dac4d89cf059ee52ee6b299fe6",
    "catalogue-bernoulli":
        "ba1fd0ee663849c5af5382abcf4ee7f6d88a377468cda8bc28f0afc26f17f984",
    "temporal-burst":
        "1d440beec703e6954fb926d7de9222d3328ddfc7aa346d1dd184834f77745224",
    "removal-bernoulli":
        "b4c39ccac3c5f649ba03156160db87fe22b4f70ffcd26a77c6c65d63ff284606",
}


class TestPinnedRuns:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_result_digest_is_pinned(self, name):
        scenario, steps = pinned_runs()[name]
        server = BroadcastServer(scenario)
        for slot, mutation in steps:
            server.advance(until=slot)
            server.apply(mutation)
        server.advance()
        payload = json.dumps(server.close().to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == PINNED_DIGESTS[name]


class TestLifecycle:
    def test_client_caches_rejected(self):
        scenario = traffic_scenario(
            traffic=TrafficSpec(clients=2, cache="lru")
        )
        with pytest.raises(SpecificationError, match="caches"):
            BroadcastServer(scenario)

    def test_apply_after_close_rejected(self):
        server = BroadcastServer(traffic_scenario(traffic=None))
        server.close()
        with pytest.raises(SpecificationError, match="closed"):
            server.apply(ModeChange("combat"))
        with pytest.raises(SpecificationError, match="closed"):
            server.close()

    def test_advance_after_close_rejected(self):
        server = BroadcastServer(moded_scenario())
        server.advance(until=50)
        result = server.close()
        with pytest.raises(SpecificationError, match="closed"):
            server.advance()
        with pytest.raises(SpecificationError, match="closed"):
            server.advance(until=100)
        # Nothing was served after sign-off; the live walker stays
        # callable for inspection.
        assert server.now == result.final_slot == 50
        assert server.live_retrieve("pos", 60).completed

    def test_sign_off_airs_through_the_last_splice(self, tmp_path):
        """The sign-off comes at the later of ``now`` and the last
        committed splice, so every on-air record precedes it, and no
        client is served past ``now`` while the splice drains."""
        from repro.server.asrun import read_asrun

        log_path = tmp_path / "asrun.jsonl"
        server = BroadcastServer(moded_scenario(), log_path=log_path)
        events = server.advance(until=5)
        splice = server.apply(ModeChange("combat"))["splice_slot"]
        assert splice > 5
        result = server.close()
        records = read_asrun(log_path)
        assert records[-1]["type"] == "sign-off"
        assert records[-1]["slot"] == result.final_slot == splice
        assert all(
            r["slot"] <= splice for r in records if r["type"] == "on-air"
        )
        assert server.now == 5
        assert result.events_processed == events

    @pytest.mark.parametrize("until", [-5, -1, 2.5, "10", True])
    def test_until_must_be_a_slot(self, until):
        server = BroadcastServer(moded_scenario())
        with pytest.raises(SpecificationError, match="until"):
            server.advance(until=until)
        assert server.now == 0

    @pytest.mark.parametrize("bound", [0, -1, 1.5])
    def test_max_boundaries_must_be_positive(self, bound):
        with pytest.raises(SpecificationError, match="max_boundaries"):
            BroadcastServer(
                moded_scenario(traffic=None), max_boundaries=bound
            )

    def test_asrun_log_records_lifecycle(self, tmp_path):
        from repro.server.asrun import read_asrun

        log_path = tmp_path / "asrun.jsonl"
        server = BroadcastServer(
            moded_scenario(traffic=None), log_path=log_path
        )
        server.advance(until=5)
        server.apply(ModeChange("combat"))
        result = server.close()
        records = read_asrun(log_path)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "on-air"
        assert kinds[-1] == "sign-off"
        assert "mutation" in kinds and "splice" in kinds
        splice = next(r for r in records if r["type"] == "splice")
        witness = splice["window"]
        split = result.splice_slots[0] - witness["from_slot"]
        assert witness["planned"][:split] == witness["aired"][:split]
