"""Unit tests for the typed metrics registry (repro.obs.metrics)."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DELAY_BIN_EDGES,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("outputs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.snapshot() == {"kind": "counter", "value": 3.5}

    def test_counter_rejects_negative(self):
        c = Counter("outputs")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)

    def test_gauge_set_and_add(self):
        g = Gauge("occupancy")
        g.set(0.25)
        g.add(0.5)
        assert g.value == 0.75
        assert g.snapshot()["kind"] == "gauge"

    def test_histogram_buckets(self):
        h = Histogram("delay")
        # An edge value lands in its own bin (Prometheus `le`); values
        # past the last edge land in the +Inf tail.
        h.observe_many(np.array([0.0005, 0.001, 0.1, 0.1, 5e3]))
        snap = h.snapshot()
        assert snap["buckets"] == DELAY_BIN_EDGES.tolist()
        assert len(snap["counts"]) == len(DELAY_BIN_EDGES) + 1
        tenth = int(np.searchsorted(DELAY_BIN_EDGES, 0.1))
        assert snap["counts"][0] == 2
        assert snap["counts"][tenth] == 2
        assert snap["counts"][-1] == 1  # last bin = +Inf tail
        assert sum(snap["counts"]) == 5
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5000.2015)

    def test_histogram_edges_are_log_spaced(self):
        assert len(DELAY_BIN_EDGES) == 61
        assert DELAY_BIN_EDGES[0] == pytest.approx(1e-3)
        assert DELAY_BIN_EDGES[-1] == pytest.approx(1e3)
        assert np.all(np.diff(DELAY_BIN_EDGES) > 0)


class TestRegistry:
    def test_factories_are_idempotent(self):
        reg = MetricsRegistry(node=2)
        a = reg.counter("outputs")
        b = reg.counter("outputs")
        assert a is b
        assert len(reg) == 1

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry(node=2)
        reg.counter("outputs")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("outputs")

    def test_snapshot_is_sorted_and_plain(self):
        import json

        reg = MetricsRegistry(node=2)
        reg.gauge("b").set(1.0)
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        json.dumps(snap)  # must be JSON-serializable

    def test_null_registry_registers_nothing(self):
        assert not NULL_REGISTRY.enabled
        c = NULL_REGISTRY.counter("outputs")
        c.inc(100.0)
        g = NULL_REGISTRY.gauge("occ")
        g.set(5.0)
        h = NULL_REGISTRY.histogram("delay")
        h.observe_many(np.array([1.0]))
        assert c.value == 0.0
        assert g.value == 0.0
        # A histogram is its owner's statistics: it still records, but
        # a disabled registry never registers it.
        assert h.count == 1
        assert NULL_REGISTRY.histogram("delay") is not h
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == {}

    def test_null_instruments_are_shared(self):
        assert NULL_REGISTRY.counter("x") is NULL_REGISTRY.counter("y")


class TestPrometheusRendering:
    def test_families_carry_node_labels(self):
        a, b = MetricsRegistry(node=0), MetricsRegistry(node=2)
        a.counter("epochs").inc(3)
        b.counter("epochs").inc(5)
        b.gauge("occupancy").set(0.5)
        text = render_prometheus({0: a.snapshot(), 2: b.snapshot()})
        assert "# TYPE swjoin_epochs counter" in text
        assert 'swjoin_epochs_total{node="0"} 3' in text
        assert 'swjoin_epochs_total{node="2"} 5' in text
        assert 'swjoin_occupancy{node="2"} 0.5' in text
        assert text.endswith("\n")

    def test_histogram_renders_cumulative_buckets(self):
        reg = MetricsRegistry(node=2)
        h = reg.histogram("delay")
        h.observe_many(np.array([0.05, 0.5, 5e3]))
        text = render_prometheus({2: reg.snapshot()})
        assert 'swjoin_delay_bucket{node="2",le="0.001"} 0' in text
        assert 'swjoin_delay_bucket{node="2",le="0.1"} 1' in text
        assert 'swjoin_delay_bucket{node="2",le="1"} 2' in text
        assert 'swjoin_delay_bucket{node="2",le="1000"} 2' in text
        assert 'swjoin_delay_bucket{node="2",le="+Inf"} 3' in text
        assert 'swjoin_delay_count{node="2"} 3' in text
        assert text.count("swjoin_delay_bucket") == len(DELAY_BIN_EDGES) + 1

    def test_output_is_deterministic(self):
        reg = MetricsRegistry(node=0)
        reg.counter("z").inc()
        reg.counter("a").inc()
        snaps = {0: reg.snapshot()}
        assert render_prometheus(snaps) == render_prometheus(snaps)

    def test_empty_input_renders_empty(self):
        assert render_prometheus({}) == ""
