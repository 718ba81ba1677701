"""Unit tests for the telemetry registry: instruments, stability
classes, the activation stack, and the exact merge contract.

The merge contract is the load-bearing claim of :mod:`repro.obs`: a
registry merged from per-shard payloads must equal the registry a
serial run would have produced, bit for bit, for every instrument whose
stability is "exact".  Counters sum, histogram buckets add elementwise
(integer-valued, so float addition is exact below 2**53), and gauges
take the max.
"""

import pytest

from repro.errors import SpecificationError
from repro.obs import telemetry as obs
from repro.obs.telemetry import (
    DEFAULT_BOUNDS,
    TIME_BOUNDS,
    Telemetry,
)


class TestInstruments:
    def test_counter_add_and_value(self):
        tel = Telemetry()
        tel.inc("requests")
        tel.inc("requests", 4)
        assert tel.value("requests") == 5

    def test_counter_labels_are_order_insensitive(self):
        tel = Telemetry()
        tel.inc("hits", tier="memory", engine="soa")
        tel.inc("hits", engine="soa", tier="memory")
        assert tel.value("hits", tier="memory", engine="soa") == 2

    def test_distinct_labels_are_distinct_cells(self):
        tel = Telemetry()
        tel.inc("hits", tier="memory")
        tel.inc("hits", tier="disk")
        assert tel.value("hits", tier="memory") == 1
        assert tel.value("hits", tier="disk") == 1
        assert tel.value("hits") is None  # unlabeled cell never touched

    def test_gauge_set(self):
        tel = Telemetry()
        tel.gauge("workers", 8.0)
        tel.gauge("workers", 2.0)
        assert tel.value("workers") == 2.0

    def test_histogram_bucketing(self):
        tel = Telemetry()
        for v in (0.5, 1.0, 3.0, 1_000_000_000.0):
            tel.observe("latency", v)
        hist = tel.get_histogram("latency")
        assert hist.count == 4
        assert hist.total == pytest.approx(1_000_000_004.5)
        assert hist.vmin == 0.5
        assert hist.vmax == 1_000_000_000.0
        # 0.5 and 1.0 land in the <=1.0 bucket; 3.0 in <=4.0; the
        # billion overflows every finite bound into the +Inf bucket.
        assert sum(hist.counts) == 4
        assert hist.counts[0] == 2
        assert hist.counts[-1] == 1

    def test_histogram_rejects_unsorted_bounds(self):
        tel = Telemetry()
        with pytest.raises(SpecificationError):
            tel.histogram("bad", bounds=(2.0, 1.0))

    def test_unknown_stability_rejected(self):
        tel = Telemetry()
        with pytest.raises(SpecificationError):
            tel.inc("x", stability="wobbly")

    def test_first_registration_fixes_stability(self):
        tel = Telemetry()
        tel.inc("x", stability="shape")
        tel.inc("x")  # later default-exact lookups reuse the cell
        (record,) = tel.to_dict(spans=False)["metrics"]
        assert record["stability"] == "shape"
        assert record["value"] == 2

    def test_kind_conflict_rejected(self):
        tel = Telemetry()
        tel.inc("x")
        with pytest.raises(SpecificationError):
            tel.observe("x", 1.0)

    def test_default_bounds_are_powers_of_two(self):
        assert DEFAULT_BOUNDS[0] == 1.0
        assert DEFAULT_BOUNDS[-1] == float(1 << 20)
        assert list(TIME_BOUNDS) == sorted(TIME_BOUNDS)


class TestActivationStack:
    def test_module_helpers_are_noops_when_inactive(self):
        assert obs.current() is None
        obs.inc("nothing")  # must not raise, must not record anywhere
        obs.observe("nothing", 1.0)
        obs.gauge("nothing", 1.0)
        with obs.span("nothing") as span:
            assert span is None

    def test_capture_activates_and_restores(self):
        assert obs.current() is None
        with obs.capture() as tel:
            assert obs.current() is tel
            obs.inc("seen")
        assert obs.current() is None
        assert tel.value("seen") == 1

    def test_capture_nests(self):
        with obs.capture() as outer:
            with obs.capture() as inner:
                obs.inc("x")
            obs.inc("y")
        assert inner.value("x") == 1
        assert inner.value("y") is None
        assert outer.value("y") == 1
        assert outer.value("x") is None

    def test_call_captured_ships_a_payload_only_when_on(self):
        def task(n):
            with obs.span("task"):
                obs.inc("calls")
            return n * 2

        assert obs.call_captured(False, task, 3) == (6, None)
        result, payload = obs.call_captured(True, task, n=4)
        assert result == 8 and obs.current() is None
        merged = Telemetry.from_dict(payload)
        assert merged.value("calls") == 1
        assert [span["name"] for span in payload["spans"]] == ["task"]

    def test_activate_deactivate_pair(self):
        tel = Telemetry()
        assert obs.activate(tel) is tel
        try:
            assert obs.current() is tel
        finally:
            assert obs.deactivate() is tel
        assert obs.current() is None


class TestMerge:
    def test_counters_sum(self):
        a, b = Telemetry(), Telemetry()
        a.inc("n", 3)
        b.inc("n", 4)
        b.inc("other", 1)
        a.merge(b)
        assert a.value("n") == 7
        assert a.value("other") == 1

    def test_gauges_take_max(self):
        a, b = Telemetry(), Telemetry()
        a.gauge("depth", 2.0)
        b.gauge("depth", 5.0)
        a.merge(b)
        assert a.value("depth") == 5.0

    def test_histograms_add_buckets(self):
        a, b = Telemetry(), Telemetry()
        a.observe("lat", 1.0)
        b.observe("lat", 3.0)
        b.observe("lat", 100.0)
        a.merge(b)
        hist = a.get_histogram("lat")
        assert hist.count == 3
        assert hist.vmin == 1.0
        assert hist.vmax == 100.0

    def test_histogram_bounds_mismatch_raises(self):
        a, b = Telemetry(), Telemetry()
        a.observe("lat", 1.0, bounds=(1.0, 2.0))
        b.observe("lat", 1.0, bounds=(1.0, 4.0))
        with pytest.raises(SpecificationError):
            a.merge(b)

    def test_merge_dict_equals_merge(self):
        shard = Telemetry()
        shard.inc("n", 9, tier="x")
        shard.observe("lat", 2.0)
        shard.gauge("g", 4.0)
        via_obj, via_dict = Telemetry(), Telemetry()
        via_obj.merge(shard)
        via_dict.merge_dict(shard.to_dict())
        assert via_obj.deterministic_dict() == via_dict.deterministic_dict()

    def test_merge_is_order_independent_for_exact(self):
        shards = []
        for i in range(3):
            t = Telemetry()
            t.inc("n", i + 1)
            t.observe("lat", float(i))
            shards.append(t.to_dict())
        forward, backward = Telemetry(), Telemetry()
        for payload in shards:
            forward.merge_dict(payload)
        for payload in reversed(shards):
            backward.merge_dict(payload)
        assert (
            forward.deterministic_dict() == backward.deterministic_dict()
        )


class TestSerialization:
    def test_round_trip(self):
        tel = Telemetry()
        tel.inc("n", 2, tier="disk")
        tel.observe("lat", 3.0)
        tel.gauge("g", 1.5)
        with tel.span("work", kind="test"):
            pass
        clone = Telemetry.from_dict(tel.to_dict())
        assert clone.value("n", tier="disk") == 2
        assert clone.get_histogram("lat").count == 1
        assert clone.value("g") == 1.5
        assert clone.to_dict() == tel.to_dict()

    def test_deterministic_dict_excludes_volatile(self):
        tel = Telemetry()
        tel.inc("n")  # exact
        tel.inc("m", stability="shape")
        tel.gauge("g", 2.0)  # volatile
        names = {
            entry["name"] for entry in tel.deterministic_dict()["metrics"]
        }
        assert names == {"n"}

    def test_to_dict_stability_filter(self):
        tel = Telemetry()
        tel.inc("n")
        tel.inc("m", stability="shape")
        shape_only = tel.to_dict(stability=("shape",))
        assert [e["name"] for e in shape_only["metrics"]] == ["m"]
