"""End-to-end cluster runs on small configurations."""

import numpy as np
import pytest

from repro import JoinSystem, SystemConfig
from repro.core.system import RunResult


@pytest.fixture(scope="module")
def result() -> RunResult:
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.01)
        .with_(
            npart=12,
            rate=400.0,
            num_slaves=2,
            run_seconds=12.0,
            warmup_seconds=6.0,
            window_seconds=3.0,
            reorg_epoch=4.0,
        )
    )
    return JoinSystem(cfg).run()


class TestRunResult:
    def test_outputs_produced(self, result):
        assert result.outputs > 0
        assert result.avg_delay > 0.0

    def test_collector_matches_local_statistics(self, result):
        assert result.collector_delays.count == result.delays.count
        assert result.collector_delays.total == pytest.approx(
            result.delays.total
        )
        assert (
            result.collector_delays.histogram.tolist()
            == result.delays.histogram.tolist()
        )
        assert result.collector_delays.minimum == result.delays.minimum
        assert result.collector_delays.maximum == result.delays.maximum

    def test_every_slave_worked(self, result):
        for snap in result.slaves:
            assert snap["cpu_total"] > 0.0
            assert snap["comm_time"] > 0.0
            assert snap["tuples_processed"] > 0

    def test_idle_decomposition(self, result):
        for idle, snap in zip(result.idle_times, result.slaves):
            assert 0.0 <= idle <= result.duration
            assert idle == pytest.approx(
                max(
                    0.0,
                    result.duration - snap["cpu_total"] - snap["comm_time"],
                )
            )

    def test_master_counters(self, result):
        assert result.master["epochs"] > 0
        assert result.master["reorgs"] >= 1
        assert result.master["tuples_ingested"] > 0
        assert result.master["max_buffer_bytes"] > 0

    def test_windows_bounded_by_workload(self, result):
        # A slave can never hold more than the full two-stream window
        # (plus block rounding): rate * W * 64 B * 2 streams.
        cfg = result.cfg
        bound = 2 * cfg.rate * cfg.window_seconds * cfg.tuple_bytes
        assert 0 < result.max_window_bytes < 2.0 * bound

    def test_summary_renders(self, result):
        text = result.summary()
        assert "outputs" in text
        assert "per-slave cpu" in text

    def test_to_dict_roundtrips_scalars(self, result):
        d = result.to_dict()
        assert d["outputs"] == result.outputs
        assert d["avg_delay"] == result.avg_delay


class TestDeterminism:
    def test_same_seed_same_everything(self, tiny_cfg):
        a = JoinSystem(tiny_cfg).run()
        b = JoinSystem(tiny_cfg).run()
        assert a.outputs == b.outputs
        assert a.avg_delay == b.avg_delay
        assert a.cpu_times == b.cpu_times
        assert a.comm_times == b.comm_times

    def test_different_seed_differs(self, tiny_cfg):
        a = JoinSystem(tiny_cfg).run()
        b = JoinSystem(tiny_cfg.with_(seed=99)).run()
        assert a.outputs != b.outputs


class TestConfigurationVariants:
    def test_single_slave(self, tiny_cfg):
        result = JoinSystem(tiny_cfg.with_(num_slaves=1)).run()
        assert result.outputs > 0

    def test_subgroup_communication(self, tiny_cfg):
        result = JoinSystem(
            tiny_cfg.with_(num_slaves=4, num_subgroups=2)
        ).run()
        assert result.outputs > 0
        # The sub-grouped master drains twice per epoch: its peak
        # buffer stays below the single-group peak.
        single = JoinSystem(tiny_cfg.with_(num_slaves=4)).run()
        assert (
            result.master["max_buffer_bytes"]
            <= single.master["max_buffer_bytes"]
        )

    def test_no_fine_tuning_runs(self, tiny_cfg):
        result = JoinSystem(tiny_cfg.with_(fine_tuning=False)).run()
        assert result.outputs > 0
        assert sum(s["splits"] for s in result.slaves) == 0

    def test_load_balancing_disabled_means_no_moves(self, tiny_cfg):
        result = JoinSystem(
            tiny_cfg.with_(load_balancing=False, rate=800.0)
        ).run()
        assert result.master["moves_ordered"] == 0

    def test_adaptive_declustering_shrinks_idle_cluster(self, tiny_cfg):
        cfg = tiny_cfg.with_(
            num_slaves=4, rate=100.0, adaptive_declustering=True,
            run_seconds=24.0, warmup_seconds=6.0,
        )
        result = JoinSystem(cfg).run()
        assert result.final_active_slaves < 4
        assert result.outputs > 0

    def test_initial_active_subset_grows_under_load(self, tiny_cfg):
        cfg = tiny_cfg.with_(
            num_slaves=4,
            rate=2500.0,
            adaptive_declustering=True,
            initial_active_slaves=1,
            run_seconds=24.0,
            warmup_seconds=6.0,
        )
        result = JoinSystem(cfg).run()
        assert result.final_active_slaves > 1

    def test_epoch_timing_variants(self, tiny_cfg):
        for td in (0.5, 1.0, 3.0):
            cfg = tiny_cfg.with_(dist_epoch=td, reorg_epoch=max(4.0, 4 * td))
            result = JoinSystem(cfg).run()
            assert result.outputs > 0
