"""Instrumentation coverage: the library paths wired into ``repro.obs``
actually record - and record nothing when telemetry is inactive."""

import warnings

import pytest

from repro.api import Scenario
from repro.bdisk.file import FileSpec
from repro.obs import telemetry as obs
from repro.sim.faults import BernoulliFaults, NoFaults, lost_in
from repro.sweep import SolveCache
from repro.sweep.store import RunStore
from repro.traffic import TrafficSpec, simulate_traffic

from repro.bdisk.multidisk import build_multidisk_program, config_from_demand


def multidisk_world():
    files = [("hot", 2), ("warm", 3), ("cold", 4)]
    program = build_multidisk_program(
        config_from_demand(
            files, {"hot": 6.0, "warm": 2.0, "cold": 1.0}, levels=(4, 2, 1)
        )
    )
    return program, [name for name, _ in files], dict(files)


def scenario(**overrides) -> Scenario:
    params = dict(
        name="instrumented",
        files=(
            FileSpec("pos", 2, 2, fault_budget=1),
            FileSpec("map", 3, 6),
        ),
    )
    params.update(overrides)
    return Scenario(**params)


class TestSolverCounters:
    def test_solve_records_attempts_and_successes(self):
        with obs.capture() as tel:
            SolveCache().design_for(scenario())
        records = {
            (name, labels): inst.value
            for name, labels, inst in tel.instruments()
            if inst.kind == "counter" and name.startswith("solve.")
        }
        attempts = sum(
            v for (n, _), v in records.items() if n == "solve.attempts"
        )
        successes = sum(
            v for (n, _), v in records.items() if n == "solve.successes"
        )
        assert attempts >= 1
        assert successes == 1
        hist = next(
            inst
            for name, _, inst in tel.instruments()
            if name == "solve.seconds"
        )
        assert hist.count == attempts
        assert hist.stability == "volatile"


class TestCacheCounters:
    def test_hits_misses_and_tiers(self, tmp_path):
        with obs.capture() as tel:
            cache = SolveCache(str(tmp_path))
            cache.design_for(scenario())
            cache.design_for(scenario())  # memory hit
            cold = SolveCache(str(tmp_path))
            cold.design_for(scenario())  # disk hit
        assert tel.value("solve_cache.misses") == 1
        assert tel.value("solve_cache.hits", tier="memory") == 1
        assert tel.value("solve_cache.hits", tier="disk") == 1
        assert tel.value("solve_cache.solves") == 1

    def test_snapshot_diff_brackets_one_operation(self):
        cache = SolveCache()
        cache.design_for(scenario())
        before = cache.snapshot()
        cache.design_for(scenario())  # one hit
        delta = cache.diff(before)
        assert delta == {
            "hits": 1, "misses": 0, "solves": 0, "lock_waits": 0,
        }

    def test_diff_tolerates_missing_keys(self):
        cache = SolveCache()
        cache.design_for(scenario())
        assert cache.diff({})["misses"] == 1


class TestStoreTornLineWarning:
    def rows(self):
        return [
            {"key": "a=1", "value": 1},
            {"key": "a=2", "value": 2},
        ]

    def test_heal_on_append_warns_with_byte_offset(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(str(path))
        for row in self.rows():
            store.append(row)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"key": "a=3", "val')  # torn tail
        size = path.stat().st_size
        with obs.capture() as tel:
            with pytest.warns(RuntimeWarning) as caught:
                RunStore(str(path)).append({"key": "a=3", "value": 3})
        message = str(caught[0].message)
        assert "torn final run-store line" in message
        assert f"bytes {len(intact)}..{size} of {size}" in message
        assert tel.value("sweep.store.torn_lines", healed="true") == 1
        # The heal left exactly the intact rows plus the re-append.
        assert [r["key"] for r in RunStore(str(path)).rows()] == [
            "a=1", "a=2", "a=3",
        ]

    def test_intact_store_does_not_warn(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in self.rows():
                store.append(row)
            assert len(list(RunStore(str(path)).rows())) == 2


class TestFaultCounters:
    def test_batches_counted_for_real_models_only(self):
        model = BernoulliFaults(0.5, seed=1)
        with obs.capture() as tel:
            lost_in(model, [1, 2, 3])
            lost_in(NoFaults(), [4, 5])
        assert tel.value("faults.draw_batches") == 1
        assert tel.value("faults.slots_drawn") == 3

    def test_decisions_are_identical_with_telemetry_on(self):
        plain = lost_in(BernoulliFaults(0.5, seed=7), range(64))
        with obs.capture():
            observed = lost_in(BernoulliFaults(0.5, seed=7), range(64))
        assert observed == plain


class TestTrafficCounters:
    def test_object_engine_records_requests_and_retrievals(self):
        program, catalogue, sizes = multidisk_world()
        spec = TrafficSpec(
            clients=12, duration=120, requests_per_client=2,
            think_time=2, seed=5,
        )
        with obs.capture() as tel:
            result = simulate_traffic(
                program, catalogue, spec,
                file_sizes=sizes,
                deadlines={name: 10_000 for name in catalogue},
                engine="object",
            )
        assert (
            tel.value("traffic.requests", engine="object")
            == result.requests
        )
        assert (
            tel.value("traffic.completions", engine="object")
            == result.completions
        )
        hist = tel.get_histogram("traffic.latency_slots", engine="object")
        assert hist.count == result.completions

    def test_nothing_recorded_without_capture(self):
        program, catalogue, sizes = multidisk_world()
        spec = TrafficSpec(
            clients=6, duration=80, requests_per_client=1, seed=5,
        )
        before = obs.current()
        simulate_traffic(
            program, catalogue, spec,
            file_sizes=sizes,
            deadlines={name: 10_000 for name in catalogue},
        )
        assert obs.current() is before is None


class TestMultichannelInstrumentation:
    def channel_set(self, *, tuning_cost=2, quorum=1, assignment="striped"):
        from repro.api.scenario import ChannelSpec
        from repro.bdisk.multichannel import design_multichannel_program

        files = [
            FileSpec("a", 2, 10),
            FileSpec("b", 3, 15),
            FileSpec("c", 2, 20),
            FileSpec("d", 4, 30),
        ]
        return design_multichannel_program(
            files,
            ChannelSpec(
                count=2,
                assignment=assignment,
                tuning_cost=tuning_cost,
                quorum=quorum,
            ),
        ).channel_set

    def test_tuning_switch_counter_matches_metrics(self):
        channels = self.channel_set()
        with obs.capture() as tel:
            result = simulate_traffic(
                None,
                ("a", "b", "c", "d"),
                TrafficSpec(clients=30, duration=200, seed=17),
                file_sizes={"a": 2, "b": 3, "c": 2, "d": 4},
                deadlines={n: 10_000 for n in ("a", "b", "c", "d")},
                channels=channels,
            )
        switches = sum(
            inst.value
            for name, _, inst in tel.instruments()
            if name == "traffic.tuning.switches"
        )
        assert switches == result.metrics.channel_switches
        assert switches > 0

    def test_quorum_read_counter_labels_outcomes(self):
        from repro.rtdb import TemporalItemSpec, TemporalSpec

        channels = self.channel_set(
            assignment="replicated", quorum=2, tuning_cost=1
        )
        temporal = TemporalSpec(
            slot_ms=10,
            items=tuple(
                TemporalItemSpec(n, blocks=b, max_age_ms=4000)
                for n, b in (("a", 2), ("b", 3), ("c", 2), ("d", 4))
            ),
            update_periods={n: 400 for n in ("a", "b", "c", "d")},
        )
        with obs.capture() as tel:
            result = simulate_traffic(
                None,
                ("a", "b", "c", "d"),
                TrafficSpec(clients=20, duration=200, seed=17),
                file_sizes={"a": 2, "b": 3, "c": 2, "d": 4},
                deadlines={n: 10_000 for n in ("a", "b", "c", "d")},
                channels=channels,
                temporal=temporal,
            )
        by_outcome = {}
        for name, labels, inst in tel.instruments():
            if name == "traffic.quorum.reads":
                outcome = dict(labels)["outcome"]
                by_outcome[outcome] = (
                    by_outcome.get(outcome, 0) + inst.value
                )
        assert by_outcome == dict(result.metrics.quorum_reads)

    def test_mutation_spans_carry_the_channel_label(self):
        from repro.api.scenario import ChannelSpec
        from repro.server.mutations import AddFile
        from repro.server.server import BroadcastServer

        scenario = Scenario(
            name="mc-tel",
            files=(
                FileSpec("a", 2, 10),
                FileSpec("b", 3, 15),
                FileSpec("c", 2, 20),
                FileSpec("d", 4, 30),
            ),
            channels=ChannelSpec(count=2),
        )
        with obs.capture() as tel:
            server = BroadcastServer(scenario)
            server.apply(
                AddFile(file={"name": "e", "blocks": 2, "latency": 25})
            )
            server.close()
        searches = [
            span
            for span in tel.spans
            if span.name == "server.mutation.splice_search"
        ]
        assert sorted(s.attrs["channel"] for s in searches) == [0, 1]
        splices = {
            int(dict(labels)["channel"]): inst.value
            for name, labels, inst in tel.instruments()
            if name == "server.channel.splices"
        }
        assert splices == {0: 1, 1: 1}
