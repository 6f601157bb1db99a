"""End-to-end observability: tracing a full simulated run.

Covers the acceptance criteria of the tracing layer:

* a traced adaptive run emits at least five distinct event kinds
  (epoch, reorg, split/merge, state_move, dod, ...);
* the JSONL exporter and ``swjoin report`` work end to end;
* tracing is *passive* — the same config produces bit-identical
  results with observability on and off;
* the trace and sampled series are threaded into ``RunResult``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.config import ObservabilityConfig, SystemConfig
from repro.core.system import JoinSystem


def provocative_config(**obs_kwargs) -> SystemConfig:
    """A tiny config that exercises every adaptive mechanism: high
    rate + skew forces splits; starting with one active slave out of
    two forces DoD growth, state moves and reclassification."""
    cfg = SystemConfig.paper_defaults().scaled(0.02)
    return dataclasses.replace(
        cfg,
        rate=3500.0,
        num_slaves=2,
        npart=12,
        b_skew=0.8,
        adaptive_declustering=True,
        initial_active_slaves=1,
        obs=ObservabilityConfig(**obs_kwargs),
    )


@pytest.fixture(scope="module")
def traced_result():
    cfg = provocative_config(trace_memory=True, sample_period=1.0)
    return JoinSystem(cfg).run()


class TestTracedRun:
    def test_emits_at_least_five_distinct_kinds(self, traced_result):
        kinds = {record["kind"] for record in traced_result.trace}
        assert {"epoch", "dod", "reorg", "state_move", "classify"} <= kinds
        assert "split" in kinds or "merge" in kinds
        assert len(kinds) >= 5

    def test_records_are_json_serializable(self, traced_result):
        json.dumps(traced_result.trace)

    def test_timestamps_sane(self, traced_result):
        # Slaves keep draining backlog during shutdown, so slave-side
        # events may trail past run_seconds; master epoch markers are
        # exactly the epoch boundaries.
        cfg = traced_result.cfg
        for record in traced_result.trace:
            assert record["t"] >= 0.0
        epoch_times = [
            r["t"] for r in traced_result.trace if r["kind"] == "epoch"
        ]
        assert epoch_times == sorted(epoch_times)
        assert epoch_times[-1] <= cfg.run_seconds + 1e-6

    def test_series_threaded_into_result(self, traced_result):
        series = traced_result.series
        assert series is not None
        # Slaves are nodes 2+; the master contributes buffer_bytes.
        assert "n2.occupancy" in series
        assert "n0.buffer_bytes" in series
        points = series["n2.occupancy"]
        assert len(points) > 0
        assert all(t0 < t1 for (t0, _), (t1, _) in zip(points, points[1:]))

    def test_dod_growth_traced(self, traced_result):
        dod = [r for r in traced_result.trace if r["kind"] == "dod"]
        assert dod[0]["epoch"] == -1  # baseline record
        assert dod[0]["n_active"] == 1
        assert any(r["n_active"] == 2 for r in dod[1:])

    def test_state_moves_paired(self, traced_result):
        moves = [r for r in traced_result.trace if r["kind"] == "state_move"]
        begins = sum(1 for r in moves if r["phase"] == "begin")
        ends = sum(1 for r in moves if r["phase"] == "end")
        assert begins == ends > 0


class TestObservabilityIsPassive:
    def test_identical_results_with_tracing_on_and_off(self):
        base = JoinSystem(provocative_config()).run()
        traced = JoinSystem(
            provocative_config(trace_memory=True, sample_period=1.0)
        ).run()
        assert base.trace is None and base.series is None
        assert traced.outputs == base.outputs
        assert traced.avg_delay == base.avg_delay
        assert traced.delays.histogram.tolist() == base.delays.histogram.tolist()
        assert traced.cpu_times == base.cpu_times
        assert traced.comm_times == base.comm_times
        assert traced.dod_trace == base.dod_trace


class TestRegistryDelayHistogram:
    def test_registry_snapshot_matches_each_slaves_delays(self):
        # With metrics on, each slave's production_delay_seconds
        # instrument is its delay histogram: same count, same bins.
        result = JoinSystem(provocative_config(metrics=True)).run()
        assert result.node_metrics is not None
        pooled = np.zeros_like(result.delays.histogram)
        for snap in result.slaves:
            hist = result.node_metrics[snap["node"]]["production_delay_seconds"]
            assert hist["count"] == snap["delay"]["count"] == snap["outputs"]
            assert sum(hist["counts"]) == hist["count"]
            assert hist["sum"] == pytest.approx(
                snap["delay"]["mean"] * snap["delay"]["count"]
            )
            pooled += np.asarray(hist["counts"], dtype=np.int64)
        assert result.outputs > 0
        assert np.array_equal(pooled, result.delays.histogram)
        assert np.array_equal(pooled, result.collector_delays.histogram)

        base = JoinSystem(provocative_config()).run()
        assert np.array_equal(base.delays.histogram, result.delays.histogram)
        assert base.summary() == result.summary()


class TestCliEndToEnd:
    def test_run_trace_then_report(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        code = main(
            [
                "run",
                "--scale", "0.02",
                "--rate", "3500",
                "--slaves", "2",
                "--npart", "12",
                "--b-skew", "0.8",
                "--adaptive",
                "--trace", trace,
            ]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().out

        with open(trace, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["kind"] == "meta"
        assert header["config"]["slaves"] == 2

        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "epoch timeline" in out
        assert "phase" in out  # the timeline table rendered
        assert "hot partitions" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_plot_gauge(self, capsys):
        code = main(
            [
                "run",
                "--scale", "0.01",
                "--rate", "300",
                "--slaves", "2",
                "--npart", "12",
                "--plot-gauge", "occupancy",
            ]
        )
        assert code == 0
        assert "gauge: occupancy" in capsys.readouterr().out

    def test_trace_transport_flag(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        cfg = provocative_config(trace_path=None)
        code = main(
            [
                "run",
                "--scale", "0.01",
                "--rate", "300",
                "--slaves", "2",
                "--npart", "12",
                "--trace", trace,
                "--trace-transport",
            ]
        )
        assert code == 0
        with open(trace, encoding="utf-8") as fh:
            kinds = {json.loads(line)["kind"] for line in fh}
        assert "transport" in kinds


class TestDisabledOverhead:
    def test_null_tracer_shared_and_disabled(self):
        from repro.obs.tracer import NULL_TRACER

        result = JoinSystem(provocative_config()).run()
        assert result.trace is None
        assert NULL_TRACER.n_events == 0
