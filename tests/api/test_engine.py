"""End-to-end tests for the BroadcastEngine facade."""

import pytest

from repro.api import (
    BroadcastEngine,
    FaultSpec,
    Scenario,
    ScenarioResult,
    WorkloadSpec,
    run_scenario,
    run_scenarios,
)
from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.errors import SpecificationError


def small_scenario(**overrides) -> Scenario:
    params = dict(
        name="small",
        files=(
            FileSpec("pos", 2, 2, fault_budget=1),
            FileSpec("map", 3, 6),
        ),
        workload=WorkloadSpec(requests=25, horizon=120, seed=7),
        delay_errors=1,
    )
    params.update(overrides)
    return Scenario(**params)


class TestEngineRegular:
    def test_full_pipeline(self):
        result = BroadcastEngine(small_scenario()).run()
        assert isinstance(result, ScenarioResult)
        # Design: bandwidth plan present, program verified on build.
        assert result.design.bandwidth_plan is not None
        assert result.stats.bandwidth == result.design.bandwidth_plan.bandwidth
        assert result.stats.broadcast_period == result.program.broadcast_period
        assert result.stats.method == result.report.method
        # Simulation ran the whole workload with no failed retrievals.
        assert len(result.simulation.requests) == 25
        assert result.simulation.summary.count == 25
        # Fault-free channel + verified program => no deadline misses.
        assert result.simulation.deadline_miss_rate == 0.0
        # Delay table covers every (file, errors<=1) pair.
        assert {(e.file, e.errors) for e in result.delay_table} == {
            ("pos", 0), ("pos", 1), ("map", 0), ("map", 1),
        }
        # Zero errors never adds delay.
        assert all(e.delay == 0 for e in result.delay_table if e.errors == 0)
        # Every file's payload survived dispersal -> channel -> rebuild.
        assert result.payload_checks == {"pos": True, "map": True}

    def test_design_cached(self):
        engine = BroadcastEngine(small_scenario())
        assert engine.design() is engine.design()

    def test_no_workload_skips_simulation(self):
        result = run_scenario(small_scenario(workload=None))
        assert result.simulation is None

    def test_no_delay_errors_skips_table(self):
        result = run_scenario(small_scenario(delay_errors=None))
        assert result.delay_table == ()

    def test_forced_bandwidth_respected(self):
        scenario = small_scenario(bandwidth=3, delay_errors=None)
        result = run_scenario(scenario)
        assert result.stats.bandwidth == 3

    def test_faulty_channel_still_meets_budgeted_deadlines(self):
        scenario = small_scenario(
            faults=FaultSpec(kind="adversarial", lost_slots=(3, 10)),
            delay_errors=None,
        )
        result = run_scenario(scenario)
        assert result.simulation.summary.count == 25

    def test_explicit_policy_changes_method(self):
        result = run_scenario(
            small_scenario(scheduler_policy=("greedy",), delay_errors=None)
        )
        assert result.stats.method == "greedy"
        assert result.stats.attempts == (("greedy", "ok"),)

    def test_summary_and_dict(self):
        result = run_scenario(small_scenario())
        text = result.summary()
        assert "scenario  : small" in text
        assert "deadline miss rate" in text
        record = result.to_dict()
        assert record["stats"]["method"] == result.stats.method
        assert record["simulation"]["requests"] == 25
        assert len(record["delay_table"]) == 4

    def test_engine_rejects_non_scenario(self):
        with pytest.raises(SpecificationError, match="expects a Scenario"):
            BroadcastEngine({"name": "x"})

    def test_block_size_flows_into_payload_checks(self):
        result = run_scenario(
            small_scenario(block_size=256, delay_errors=None)
        )
        assert result.payload_checks == {"pos": True, "map": True}

    def test_all_loss_channel_yields_null_latency_json(self):
        import json

        result = run_scenario(
            small_scenario(
                faults=FaultSpec(kind="bernoulli", probability=1.0),
                delay_errors=None,
            )
        )
        record = result.to_dict()
        # Nothing completed: stats are null (never bare Infinity, which
        # strict JSON consumers reject), and no payload check is possible.
        assert record["simulation"]["latency"]["mean"] is None
        assert record["simulation"]["payload_checks"] == {}
        assert "Infinity" not in json.dumps(record)
        assert result.simulation.deadline_miss_rate == 1.0

    def test_unbounded_delay_rows_survive_json_round_trip(self):
        import json

        # Regression: null-ing non-finite stats used to make an
        # unbounded-delay row indistinguishable from "not measured".
        # The bounded flag now carries that bit explicitly.
        unbounded = run_scenario(
            small_scenario(
                faults=FaultSpec(kind="bernoulli", probability=1.0),
                delay_errors=None,
            )
        ).to_dict()
        bounded = run_scenario(
            small_scenario(delay_errors=None)
        ).to_dict()
        after = json.loads(json.dumps(unbounded))
        assert after["simulation"]["latency"]["bounded"] is False
        assert after["simulation"]["latency"]["p99"] is None
        after = json.loads(json.dumps(bounded))
        assert after["simulation"]["latency"]["bounded"] is True
        assert after["simulation"]["latency"]["p99"] is not None


class TestDesignFingerprintAndInjection:
    def test_fingerprint_ignores_downstream_knobs(self):
        base = small_scenario()
        varied = [
            small_scenario(
                faults=FaultSpec(kind="bernoulli", probability=0.2)
            ),
            small_scenario(workload=WorkloadSpec(requests=9, horizon=50)),
            small_scenario(workload=None),
            small_scenario(block_size=512),
            small_scenario(delay_errors=None),
            small_scenario(name="renamed"),
        ]
        for scenario in varied:
            assert (
                scenario.design_fingerprint() == base.design_fingerprint()
            )
            # The whole-scenario fingerprint covers them all.
            assert (
                scenario.scenario_fingerprint()
                != base.scenario_fingerprint()
            )
        assert (
            small_scenario().scenario_fingerprint()
            == base.scenario_fingerprint()
        )

    def test_fingerprint_tracks_design_inputs(self):
        base = small_scenario()
        assert (
            small_scenario(bandwidth=4).design_fingerprint()
            != base.design_fingerprint()
        )
        assert (
            small_scenario(
                scheduler_policy=("greedy",)
            ).design_fingerprint()
            != base.design_fingerprint()
        )
        assert (
            small_scenario(
                files=(
                    FileSpec("pos", 2, 2, fault_budget=1),
                    FileSpec("map", 3, 7),
                )
            ).design_fingerprint()
            != base.design_fingerprint()
        )

    def test_injected_design_is_reused_and_equivalent(self):
        fresh = BroadcastEngine(small_scenario())
        design = fresh.design()
        injected = BroadcastEngine(small_scenario(), design=design)
        assert injected.design() is design
        assert (
            injected.run().to_dict()
            == BroadcastEngine(small_scenario()).run().to_dict()
        )

    def test_injected_design_must_be_a_program_design(self):
        with pytest.raises(SpecificationError, match="ProgramDesign"):
            BroadcastEngine(small_scenario(), design="nope")


class TestEngineGeneralized:
    def test_full_pipeline(self):
        scenario = Scenario(
            name="gen",
            files=(
                GeneralizedFileSpec("F", 2, (5, 6, 6)),
                GeneralizedFileSpec("H", 1, (9, 12)),
            ),
            workload=WorkloadSpec(requests=15, horizon=60, seed=3),
        )
        result = run_scenario(scenario)
        assert result.design.conjunct is not None
        assert result.stats.bandwidth is None
        assert result.simulation.deadline_miss_rate == 0.0
        # Deadlines use the weakest promise d(r).
        deadlines = {r.file: r.deadline for r in result.simulation.requests}
        assert all(
            deadlines[name] in {6, 12} for name in deadlines
        )


class TestBatch:
    def test_run_scenarios_order_and_dict_input(self):
        results = run_scenarios(
            [
                small_scenario(delay_errors=None),
                small_scenario(name="second", delay_errors=None).to_dict(),
            ]
        )
        assert [r.scenario.name for r in results] == ["small", "second"]

    def test_parallel_matches_serial(self):
        scenarios = [
            small_scenario(delay_errors=None),
            small_scenario(name="second", delay_errors=None),
            small_scenario(name="third", delay_errors=None),
        ]
        serial = run_scenarios(scenarios)
        parallel = run_scenarios(scenarios, max_workers=2)
        assert [r.scenario.name for r in parallel] == [
            "small", "second", "third",
        ]
        assert [r.to_dict() for r in parallel] == [
            r.to_dict() for r in serial
        ]

    def test_single_worker_stays_in_process(self):
        results = run_scenarios(
            [small_scenario(delay_errors=None)], max_workers=1
        )
        assert results[0].scenario.name == "small"

    def test_bad_max_workers_rejected(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(SpecificationError):
                run_scenarios(
                    [small_scenario(delay_errors=None)], max_workers=bad
                )

    def test_invalid_dict_fails_before_dispatch(self):
        with pytest.raises(SpecificationError):
            run_scenarios(
                [{"name": "broken", "files": []}], max_workers=4
            )

    def test_seeded_runs_reproduce(self):
        first = run_scenario(small_scenario(delay_errors=None))
        second = run_scenario(small_scenario(delay_errors=None))
        assert first.simulation.requests == second.simulation.requests
        assert first.simulation.summary == second.simulation.summary
