"""Every traffic entry point called without ``engine=`` runs SoA.

The vectorized engine is the default of :func:`simulate_traffic`,
:func:`simulate_traffic_shard`, :meth:`BroadcastEngine.run_traffic` and
:meth:`~BroadcastEngine.run_traffic_shard`, ``repro traffic`` and every
sweep cell with a population.  Each default call must say so in its
telemetry - ``traffic.requests{engine=soa}``, nothing under
``engine=object`` - and equal the ``engine="object"`` spec field for
field.
"""

import json

import pytest

from repro.api import Scenario
from repro.api.engine import BroadcastEngine
from repro.cli import main
from repro.obs import telemetry as obs
from repro.sweep import SweepAxis, SweepSpec, run_sweep
from repro.traffic import simulate_traffic
from repro.traffic.simulate import simulate_traffic_shard

#: Wall-clock fields of a traffic record; everything else is outcome.
WALL_CLOCK = ("requests_per_sec", "workers")

PAYLOAD = {
    "name": "default-engine",
    "files": [
        {"name": "pos", "blocks": 2, "latency": 3, "fault_budget": 1},
        {"name": "map", "blocks": 3, "latency": 6, "fault_budget": 1},
        {"name": "wx", "blocks": 2, "latency": 12},
    ],
    "faults": {"kind": "bernoulli", "probability": 0.1, "seed": 3},
    "traffic": {
        "clients": 40, "duration": 400, "requests_per_client": 3,
        "think_time": 4, "seed": 11,
    },
}


def scenario() -> Scenario:
    return Scenario.from_dict(PAYLOAD)


def record(traffic: dict) -> dict:
    """A traffic record without its wall-clock fields."""
    out = json.loads(json.dumps(traffic))
    for key in WALL_CLOCK:
        out.pop(key, None)
    return out


def assert_ran_soa(tel, requests: int) -> None:
    assert tel.value("traffic.requests", engine="soa") == requests
    assert tel.value("traffic.requests", engine="object") is None


def population():
    """``(program, catalogue, spec, keyword arguments)`` of PAYLOAD."""
    base = scenario()
    sizes = {file.name: file.blocks for file in base.files}
    kwargs = dict(
        file_sizes=sizes,
        deadlines=dict.fromkeys(sizes, 24),
        faults=base.faults,
    )
    program = BroadcastEngine(base).design().program
    return program, list(sizes), base.traffic, kwargs


class TestDefaultEngineIsSoa:
    def test_simulate_traffic(self):
        program, names, spec, kwargs = population()
        with obs.capture() as tel:
            default = simulate_traffic(
                program, names, spec, trace=True, **kwargs
            )
        assert_ran_soa(tel, default.requests)
        reference = simulate_traffic(
            program, names, spec, trace=True, engine="object", **kwargs
        )
        assert default.requests > 0
        assert vars(default.metrics) == vars(reference.metrics)
        assert default.trace == reference.trace
        assert record(default.to_dict()) == record(reference.to_dict())

    def test_simulate_traffic_shard(self):
        program, names, spec, kwargs = population()
        with obs.capture() as tel:
            default = simulate_traffic_shard(
                program, names, spec, lo=5, hi=30, **kwargs
            )
        assert_ran_soa(tel, default.requests)
        reference = simulate_traffic_shard(
            program, names, spec, lo=5, hi=30, engine="object", **kwargs
        )
        assert default.requests > 0
        assert vars(default) == vars(reference)

    def test_run_traffic(self):
        with obs.capture() as tel:
            default = BroadcastEngine(scenario()).run_traffic(trace=True)
        assert_ran_soa(tel, default.requests)
        reference = BroadcastEngine(scenario()).run_traffic(
            trace=True, engine="object"
        )
        assert vars(default.metrics) == vars(reference.metrics)
        assert default.trace == reference.trace
        assert record(default.to_dict()) == record(reference.to_dict())

    def test_run_traffic_shard(self):
        with obs.capture() as tel:
            default = BroadcastEngine(scenario()).run_traffic_shard(0, 25)
        assert_ran_soa(tel, default.requests)
        reference = BroadcastEngine(scenario()).run_traffic_shard(
            0, 25, engine="object"
        )
        assert vars(default) == vars(reference)

    def test_repro_traffic(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(PAYLOAD), encoding="utf-8")
        assert main([
            "traffic", str(path), "--json", "--telemetry",
            str(tmp_path / "tel"),
        ]) == 0
        default = json.loads(capsys.readouterr().out)
        engines = {
            dict(metric["labels"]).get("engine")
            for metric in default.pop("telemetry")["metrics"]
            if metric["name"] == "traffic.requests"
        }
        assert engines == {"soa"}
        assert main([
            "traffic", str(path), "--json", "--engine", "object",
        ]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert record(default) == record(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_sweep_cell(self, workers, tmp_path):
        spec = SweepSpec(
            name="default-engine-grid",
            base=scenario(),
            axes=(SweepAxis("faults.seed", (3,)),),
        )
        with obs.capture() as tel:
            swept = run_sweep(
                spec, max_workers=workers, cache_dir=tmp_path / "cache"
            )
        (row,) = swept.rows
        traffic = row["result"]["traffic"]
        assert_ran_soa(tel, traffic["requests"])
        reference = BroadcastEngine(scenario()).run_traffic(engine="object")
        assert record(traffic) == record(reference.to_dict())
