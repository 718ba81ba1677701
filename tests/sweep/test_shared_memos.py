"""A sweep pays once per distinct draw, dispersal and fingerprint.

While :func:`repro.sweep.run_sweep` runs cells, Bernoulli models share
their uniforms per ``(seed, slot)`` and payload checks share their AIDA
dispersals per ``(file, payload, m, n_max)``.  Rows must equal those of
cells run outside any scope, every check must still reconstruct from
its own received blocks, the tables must be closed again once the sweep
returns or raises, and a traffic run outside a sweep must never read
them.  Each cell fingerprints its design once.
"""

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.api.engine as engine_module
import repro.sweep.orchestrate as orchestrate
from repro.api import Scenario
from repro.api.engine import SHARED_DISPERSALS, BroadcastEngine
from repro.errors import ReproError
from repro.memo import opened
from repro.obs import telemetry as obs
from repro.sim.faults import SHARED_DRAWS
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import SolveCache

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: A 24-cell fault grid over two designs: every fault seed recurs at
#: four probabilities, every file at both budgets.
GRID = {
    "name": "shared-grid",
    "base": {
        "name": "shared",
        "files": [
            {"name": "pos", "blocks": 2, "latency": 3, "fault_budget": 1},
            {"name": "map", "blocks": 3, "latency": 8},
        ],
        "workload": {"requests": 8, "horizon": 80, "seed": 4},
    },
    "axes": [
        {"field": "faults.kind", "values": ["bernoulli"]},
        {"field": "faults.probability", "values": [0.0, 0.05, 0.2, 0.4]},
        {"field": "faults.seed", "values": [1, 2, 3]},
        {"field": "files.1.fault_budget", "values": [0, 1]},
    ],
}


def comparable(row):
    """A row without its wall clocks and its scheduling-dependent flag."""
    row = json.loads(json.dumps(row))
    row.pop("elapsed")
    row.pop("cache_hit")
    traffic = row["result"].get("traffic")
    if traffic:
        traffic.pop("requests_per_sec", None)
    return row


def closed():
    return SHARED_DRAWS.entries is None and SHARED_DISPERSALS.entries is None


class TestRowsAreUnchanged:
    @pytest.mark.parametrize("payload", [
        GRID,
        json.loads((EXAMPLES / "sweep_fault_grid.json").read_text()),
        json.loads((EXAMPLES / "sweep_multichannel.json").read_text()),
    ], ids=["grid", "fault-grid", "multichannel"])
    def test_shared_rows_equal_unshared_cells(self, payload):
        spec = SweepSpec.from_dict(payload)
        assert closed()
        unshared = [
            comparable(orchestrate.run_cell(cell, None)[0])
            for cell in spec.cells()
        ]
        draws, dispersals = SHARED_DRAWS.hits, SHARED_DISPERSALS.hits
        result = run_sweep(spec)
        assert [comparable(row) for row in result.rows] == unshared
        assert SHARED_DISPERSALS.hits > dispersals
        if payload is GRID:
            assert SHARED_DRAWS.hits > draws


class TestScope:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_tables_open_in_cells_and_closed_after_return(
        self, tmp_path, monkeypatch, workers
    ):
        markers = tmp_path / "markers"
        original = orchestrate.run_cell

        def marked(cell, cache, **kwargs):
            # Forked pool workers inherit this patch; O_APPEND keeps
            # their one-line writes whole.
            with open(markers, "a", encoding="utf-8") as handle:
                handle.write(f"{int(closed())}\n")
            return original(cell, cache, **kwargs)

        monkeypatch.setattr(orchestrate, "run_cell", marked)
        run_sweep(SweepSpec.from_dict(GRID), max_workers=workers)
        assert markers.read_text().split() == ["0"] * 24
        assert closed()

    @pytest.mark.parametrize("workers", [None, 2])
    def test_tables_closed_after_a_cell_raises(
        self, tmp_path, monkeypatch, workers
    ):
        original = orchestrate.run_cell

        def failing(cell, cache, **kwargs):
            if cell.index == 5:
                raise RuntimeError("cell 5 fails")
            return original(cell, cache, **kwargs)

        monkeypatch.setattr(orchestrate, "run_cell", failing)
        with pytest.raises(RuntimeError, match="cell 5 fails"):
            run_sweep(
                SweepSpec.from_dict(GRID), max_workers=workers,
                store_path=tmp_path / "runs.jsonl",
            )
        assert closed()

    def test_traffic_outside_a_sweep_shares_nothing(self):
        """Repeated traffic runs build fresh Bernoulli models outside any
        sweep: no table opens, no draw is shared, nothing is counted."""
        scenario = Scenario.from_file(EXAMPLES / "scenario_traffic.json")
        assert scenario.faults.kind == "bernoulli"
        hits = SHARED_DRAWS.hits
        with obs.capture() as tel:
            for _ in range(2):
                BroadcastEngine(scenario).run_traffic()
        assert SHARED_DRAWS.hits == hits and closed()
        assert tel.value("sweep.shared_draws.hits") is None
        assert tel.value("sweep.shared_dispersals.hits") is None


class TestTelemetry:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_a_traced_sweep_counts_its_hits(self, workers):
        with obs.capture() as tel:
            run_sweep(SweepSpec.from_dict(GRID), max_workers=workers)
        assert tel.value("sweep.shared_draws.hits") > 0
        assert tel.value("sweep.shared_dispersals.hits") > 0


class TestOneFingerprintPerCell:
    @pytest.mark.parametrize("tier", ["none", "memory", "disk"])
    def test_run_cell_fingerprints_once(self, tmp_path, monkeypatch, tier):
        calls = []
        original = Scenario.design_fingerprint

        def counting(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(Scenario, "design_fingerprint", counting)
        cache = {
            "none": None,
            "memory": SolveCache(),
            "disk": SolveCache(tmp_path / "cache"),
        }[tier]
        for cell in SweepSpec.from_dict(GRID).cells()[:3]:
            calls.clear()
            row, _ = orchestrate.run_cell(cell, cache)
            assert len(calls) == 1
            assert row["fingerprint"] == original(cell.scenario)


@st.composite
def scenarios(draw):
    """A small faulty scenario with a replay, on one channel or a set."""
    files = []
    for index in range(draw(st.integers(2, 4))):
        blocks = draw(st.integers(1, 4))
        files.append({
            "name": f"f{index}",
            "blocks": blocks,
            "latency": blocks * draw(st.integers(3, 10)),
            "fault_budget": draw(st.integers(0, 2)),
        })
    payload = {
        "name": "drawn-checks",
        "files": files,
        "block_size": draw(st.integers(1, 64)),
        "faults": {
            "kind": "bernoulli",
            "probability": draw(st.floats(0.0, 0.4)),
            "seed": draw(st.integers(0, 99)),
        },
        "workload": {
            "requests": draw(st.integers(1, 12)),
            "horizon": draw(st.integers(20, 200)),
            "seed": draw(st.integers(0, 99)),
        },
    }
    if draw(st.booleans()):
        payload["channels"] = {
            "count": draw(st.integers(2, min(3, len(files)))),
            "assignment": draw(st.sampled_from(["striped", "replicated"])),
        }
    return Scenario.from_dict(payload)


class TestMemoizedPayloadChecks:
    @given(scenario=scenarios(), other_seed=st.integers(100, 199))
    @settings(max_examples=60, deadline=None)
    def test_memoized_checks_equal_unmemoized(self, scenario, other_seed):
        """Checks in the scope equal checks outside it, for the cell and
        for a cell of another fault seed that reuses its dispersals, and
        every check still reconstructs from its own received blocks."""
        engine = BroadcastEngine(scenario)
        try:
            engine.design()
        except ReproError:
            assume(False)
        other = BroadcastEngine(
            Scenario.from_dict({
                **scenario.to_dict(),
                "faults": {
                    **scenario.faults.to_dict(), "seed": other_seed,
                },
            }),
            design=engine.design(),
        )
        replays = [engine.simulate(), other.simulate()]
        assert closed()
        plain = [
            cell.payload_checks(replay)
            for cell, replay in zip((engine, other), replays)
        ]
        reconstruct = mock.Mock(wraps=engine_module.reconstruct)
        with mock.patch.object(engine_module, "reconstruct", reconstruct):
            with opened(SHARED_DISPERSALS):
                hits = SHARED_DISPERSALS.hits
                shared = [
                    cell.payload_checks(replay)
                    for cell, replay in zip((engine, other), replays)
                ]
                reused = SHARED_DISPERSALS.hits - hits
        assert shared == plain
        checks = sum(len(verdicts) for verdicts in plain)
        assert reconstruct.call_count == checks
        assert all(all(verdicts.values()) for verdicts in plain)
        # Each distinct (file, n_max) disperses once in the scope: one
        # n_max per file on one channel, at most one per carrier on a
        # channel set.
        if scenario.channels is None:
            distinct = len(set(plain[0]) | set(plain[1]))
            assert reused == checks - distinct
        else:
            carriers = len(scenario.files) * scenario.channels.count
            assert reused >= checks - carriers
