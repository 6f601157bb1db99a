"""Metrics: delay statistics, gating, snapshots."""

import numpy as np
import pytest

from repro.core.metrics import (
    DelayStats,
    MasterMetrics,
    MeasurementWindow,
    SlaveMetrics,
)
from repro.obs.metrics import Histogram, MetricsRegistry


class TestDelayStats:
    def test_record_and_mean(self):
        stats = DelayStats()
        stats.observe_many(np.array([1.0, 2.0, 3.0]))
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0

    def test_empty_record_is_noop(self):
        stats = DelayStats()
        stats.observe_many(np.empty(0))
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_merge(self):
        a, b = DelayStats(), DelayStats()
        a.observe_many(np.array([1.0]))
        b.observe_many(np.array([3.0]))
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(2.0)
        assert a.maximum == 3.0

    def test_percentile_approximation(self):
        stats = DelayStats()
        stats.observe_many(np.full(99, 0.01))
        stats.observe_many(np.full(1, 100.0))
        assert stats.percentile(50) == pytest.approx(0.01, rel=0.3)
        assert stats.percentile(99.9) > 50

    def test_percentile_matches_numpy_within_bin_resolution(self):
        # The histogram has 10 log-spaced bins per decade, so each bin
        # spans a factor of 10**0.1 ≈ 1.26; interpolated percentiles
        # must land within one bin width of the exact value.
        rng = np.random.default_rng(42)
        samples = rng.lognormal(mean=0.0, sigma=1.5, size=5000)
        stats = DelayStats()
        stats.observe_many(samples)
        for q in (10, 25, 50, 75, 90, 99):
            exact = float(np.percentile(samples, q))
            assert stats.percentile(q) == pytest.approx(exact, rel=0.3)

    def test_percentile_interpolates_within_bin(self):
        # All mass in one bin: the answer must still move with q
        # instead of snapping to the bin edge.
        stats = DelayStats()
        stats.observe_many(np.full(100, 5.0))
        assert stats.percentile(50) == pytest.approx(5.0)

    def test_percentile_q100_returns_exact_maximum(self):
        stats = DelayStats()
        stats.observe_many(np.array([0.2, 1.0, 7.3]))
        assert stats.percentile(100) == 7.3
        assert stats.percentile(150) == 7.3

    def test_percentile_clamped_to_observed_range(self):
        stats = DelayStats()
        stats.observe_many(np.array([2.0, 3.0]))
        assert stats.percentile(0) >= 2.0
        assert stats.percentile(99) <= 3.0

    def test_percentile_empty(self):
        assert DelayStats().percentile(50) == 0.0
        assert DelayStats().percentile(100) == 0.0

    def test_merge_with_empty_side(self):
        filled, empty = DelayStats(), DelayStats()
        filled.observe_many(np.array([1.0, 2.0]))
        filled.merge(empty)
        assert filled.count == 2
        assert filled.mean == pytest.approx(1.5)
        assert filled.minimum == 1.0
        assert filled.maximum == 2.0

        # Empty absorbing non-empty must adopt its extrema (the empty
        # side's minimum sentinel is +inf, maximum sentinel is 0).
        other = DelayStats()
        other.merge(filled)
        assert other.count == 2
        assert other.minimum == 1.0
        assert other.maximum == 2.0
        assert other.percentile(100) == 2.0

    def test_merge_two_empty(self):
        a, b = DelayStats(), DelayStats()
        a.merge(b)
        assert a.count == 0
        assert a.mean == 0.0
        assert a.percentile(50) == 0.0

    def test_histogram_total(self):
        stats = DelayStats()
        stats.observe_many(np.random.default_rng(0).uniform(0.001, 500, 1000))
        assert stats.histogram.sum() == 1000

    def test_snapshot_keys(self):
        stats = DelayStats()
        stats.observe_many(np.array([0.5]))
        snap = stats.summary()
        assert set(snap) == {"count", "mean", "min", "max", "p50", "p99"}

    def test_is_the_registry_histogram(self):
        assert DelayStats is Histogram


class TestMeasurementWindow:
    def test_active(self):
        gate = MeasurementWindow(10.0, 20.0)
        assert not gate.active(5.0)
        assert gate.active(10.0)
        assert gate.active(20.0)
        assert not gate.active(21.0)

    def test_overlap(self):
        gate = MeasurementWindow(10.0, 20.0)
        assert gate.overlap(0.0, 5.0) == 0.0
        assert gate.overlap(5.0, 15.0) == 5.0
        assert gate.overlap(12.0, 30.0) == 8.0
        assert gate.overlap(0.0, 30.0) == 10.0


class TestSlaveMetricsGating:
    def test_outputs_before_warmup_ignored(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0))
        metrics.record_outputs(5.0, np.array([4.0]))
        assert metrics.delays.count == 0
        metrics.record_outputs(15.0, np.array([14.0]))
        assert metrics.delays.count == 1

    def test_cpu_charge_clipped_to_gate(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.charge_cpu("probe", 8.0, 12.0)  # half inside
        assert metrics.cpu_probe == pytest.approx(2.0)
        metrics.charge_cpu("probe", 0.0, 5.0)  # fully outside
        assert metrics.cpu_probe == pytest.approx(2.0)

    def test_cpu_kinds_accumulate_separately(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.charge_cpu("probe", 0.0, 1.0)
        metrics.charge_cpu("expire", 1.0, 1.5)
        metrics.charge_cpu("tune", 1.5, 1.75)
        metrics.charge_cpu("state_move", 2.0, 2.5)
        assert metrics.cpu_total == pytest.approx(1.0 + 0.5 + 0.25 + 0.5)

    def test_unknown_cpu_kind_rejected(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        with pytest.raises(ValueError):
            metrics.charge_cpu("bogus", 0.0, 1.0)

    def test_comm_recording(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.record_comm(0.0, 2.0, 4096, sent=False)
        assert metrics.comm_time == pytest.approx(2.0)
        assert metrics.bytes_received == 4096
        assert metrics.messages == 1

    def test_pop_unreported_resets(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.record_outputs(1.0, np.array([0.5]))
        first = metrics.pop_unreported()
        assert first.count == 1
        assert metrics.pop_unreported().count == 0
        # Local (lifetime) stats unaffected by popping.
        assert metrics.delays.count == 1

    def test_pop_unreported_intervals_sum_to_delays(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        merged = Histogram()
        rng = np.random.default_rng(3)
        for step in range(5):
            now = 10.0 + step
            metrics.record_outputs(now, now - rng.uniform(0.001, 50.0, 40))
            merged.merge(metrics.pop_unreported())
        merged.merge(metrics.pop_unreported())  # empty interval
        assert merged.count == metrics.delays.count == 200
        assert np.array_equal(merged.histogram, metrics.delays.histogram)
        assert merged.total == pytest.approx(metrics.delays.total)
        assert merged.minimum == metrics.delays.minimum
        assert merged.maximum == metrics.delays.maximum

    def test_pop_unreported_is_consistent_under_a_concurrent_writer(self):
        # Wall backends record on the join thread while the comm thread
        # reports: every interval must be wire-valid (bins sum to count,
        # none negative) and the intervals must add up to the total.
        import sys
        import threading

        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        batch = np.linspace(0.002, 40.0, 16)
        stop = threading.Event()

        def record() -> None:
            while not stop.is_set():
                metrics.record_outputs(50.0, 50.0 - batch)

        merged = Histogram()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=record)
        try:
            writer.start()
            for _ in range(2000):
                interval = metrics.pop_unreported()
                assert int(interval.histogram.sum()) == interval.count
                assert (interval.histogram >= 0).all()
                if interval.count:
                    assert interval.minimum <= 0.002 + 1e-12
                merged.merge(interval)
        finally:
            stop.set()
            writer.join(timeout=10.0)
            sys.setswitchinterval(old)
        assert not writer.is_alive()
        merged.merge(metrics.pop_unreported())
        assert merged.count == metrics.delays.count
        assert np.array_equal(merged.histogram, metrics.delays.histogram)

    def test_delays_are_the_registered_instrument(self):
        registry = MetricsRegistry(node=1)
        metrics = SlaveMetrics(1, MeasurementWindow(0.0), registry=registry)
        metrics.record_outputs(2.0, np.array([1.5, 0.5]))
        snap = registry.snapshot()["production_delay_seconds"]
        assert snap["count"] == 2
        assert snap["counts"] == metrics.delays.histogram.tolist()
        assert snap["sum"] == metrics.delays.total

    def test_window_sampling_tracks_max(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.sample_window(1.0, 100)
        metrics.sample_window(2.0, 500)
        metrics.sample_window(3.0, 300)
        assert metrics.max_window_bytes == 500

    def test_comm_span_straddling_gate_start(self):
        # A transfer beginning before warm-up and ending inside the
        # window counts only its inside portion; the message itself is
        # attributed to its completion time, which is inside.
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_comm(8.0, 12.0, 1000, sent=True)
        assert metrics.comm_time == pytest.approx(2.0)
        assert metrics.messages == 1
        assert metrics.bytes_sent == 1000

    def test_comm_span_straddling_gate_stop(self):
        # Completion after the window: the overlap still counts but the
        # message/bytes do not (completion time is outside).
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_comm(19.0, 21.0, 1000, sent=False)
        assert metrics.comm_time == pytest.approx(1.0)
        assert metrics.messages == 0
        assert metrics.bytes_received == 0

    def test_comm_span_fully_outside(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_comm(21.0, 25.0, 1000, sent=True)
        assert metrics.comm_time == 0.0
        assert metrics.messages == 0

    def test_idle_span_straddling_gate(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_idle(5.0, 15.0)
        metrics.record_idle(18.0, 30.0)
        metrics.record_idle(0.0, 9.0)
        assert metrics.idle_time == pytest.approx(5.0 + 2.0)

    def test_occupancy_samples_bounded(self):
        from repro.core.metrics import OCCUPANCY_RESERVOIR_CAPACITY

        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        n = OCCUPANCY_RESERVOIR_CAPACITY * 10
        for i in range(n):
            metrics.sample_occupancy(float(i), i / n)
        assert metrics.occupancy_samples.total == n
        assert len(metrics.occupancy_samples) <= OCCUPANCY_RESERVOIR_CAPACITY
        # Decimated but still spanning the whole run.
        times = [t for t, _ in metrics.occupancy_samples.items()]
        assert times[0] == 0.0
        assert times[-1] >= n * 0.8

    def test_snapshot_contains_everything(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        snap = metrics.snapshot()
        for key in (
            "cpu_total",
            "comm_time",
            "idle_time",
            "max_window_bytes",
            "outputs",
            "splits",
            "merges",
            "delay",
        ):
            assert key in snap


class TestMasterMetrics:
    def test_buffer_sampling(self):
        metrics = MasterMetrics(MeasurementWindow(0.0))
        metrics.sample_buffer(1.0, 1000)
        metrics.sample_buffer(2.0, 400)
        assert metrics.max_buffer_bytes == 1000

    def test_comm_gated(self):
        metrics = MasterMetrics(MeasurementWindow(10.0))
        metrics.record_comm(0.0, 1.0, 64, sent=True)
        assert metrics.comm_time == 0.0
        assert metrics.messages == 0
