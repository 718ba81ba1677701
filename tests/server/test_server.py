"""End-to-end tests for the online broadcast server."""

import pytest

from repro.api.engine import BroadcastEngine
from repro.api.scenario import FaultSpec, Scenario
from repro.bdisk.file import FileSpec
from repro.errors import SpecificationError
from repro.ida.aida import RedundancyPolicy
from repro.rtdb.spec import TemporalItemSpec, TemporalSpec, TransactionSpec
from repro.server.mutations import AddFile, ModeChange
from repro.server.server import BroadcastServer
from repro.server.sessions import LiveSession, RespliceOutcome
from repro.sweep.cache import SolveCache
from repro.traffic.simulate import ENGINES, simulate_traffic
from repro.traffic.spec import TrafficSpec

import random


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
    def test_inflight_retrieval_is_rewalked_across_the_splice(
        self, monkeypatch
    ):
        # One client whose retrieval provisionally finishes exactly at
        # the boundary; scheduling the mutation at the same slot (after
        # the issue event) guarantees the request is in flight when the
        # splice commits.  The auto-spawned population is suppressed so
        # the test controls the issue slot: a retrieval of 2 distinct
        # blocks starting on the cycle's last slot must span the next
        # boundary, where find_splice_slot lands (not_before = issue+1).
        monkeypatch.setattr(
            BroadcastServer, "_spawn_traffic", lambda self, scn: None
        )
        scenario = Scenario(
            name="solo",
            files=(FileSpec("a", 2, 4),),
            traffic=TrafficSpec(
                clients=1, requests_per_client=1, duration=10,
                think_time=0, seed=1,
            ),
        )
        server = BroadcastServer(scenario)
        session = LiveSession(
            0, random.Random(1), server, requests=1, think_mean=0
        )
        cycle = server.schedule.on_air.program.data_cycle_length
        issue_at = cycle - 1
        session.begin(server.kernel, issue_at)

        records = []
        server.kernel.schedule(
            issue_at,
            lambda k: records.append(
                server.apply(
                    AddFile({"name": "b", "blocks": 2, "latency": 8})
                )
            ),
        )
        server.advance()
        result = server.close()
        assert records[0]["respliced"] == 1
        assert result.resplices == 1
        # The session still completed and recorded its read.
        assert result.metrics.requests == 1
        assert result.metrics.aborts == 0

    def test_violations_are_accounted_and_logged(self):
        class StubSession:
            pending_finish = 10**9

            def resplice(self, kernel):
                return RespliceOutcome(
                    file="pos", start=40, budget_slots=5,
                    old_latency=4, new_latency=9,
                    was_ok=True, now_ok=False,
                )

        server = BroadcastServer(moded_scenario(traffic=None))
        server.register_inflight(StubSession())
        record = server.apply(ModeChange("combat"))
        assert record["respliced"] == 1
        assert len(record["violations"]) == 1
        assert server.violations[0]["file"] == "pos"
        assert any(
            r["type"] == "violation" for r in server.log.records
        )


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
