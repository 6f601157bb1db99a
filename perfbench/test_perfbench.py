"""Tests of the benchmark itself::

    python -m pytest perfbench
"""

from __future__ import annotations

import json

import numpy as np

from perfbench import measure, oracle, run
from perfbench.layers import PER_LAYER
from perfbench.workloads import CHEAP_COST, WORKLOADS, Workload
from repro.core.system import JoinSystem
from repro.reference import naive_window_join
from repro.workload.traces import save_trace

TINY = Workload(
    name="tiny",
    why="test",
    fields=dict(
        num_slaves=2,
        npart=8,
        rate=300.0,
        key_domain=20_000,
        window_seconds=5.0,
        run_seconds=20.0,
        warmup_seconds=5.0,
        cost=CHEAP_COST,
    ),
    cpu_bound=True,
)


def test_digest_ignores_order_and_sees_one_changed_pair():
    pairs = np.array([[1, 2], [3, 4], [3, 4], [5, 6]], dtype=np.int64)
    assert oracle.digest(pairs[::-1]) == oracle.digest(pairs)
    changed = pairs.copy()
    changed[2, 1] = 5
    assert oracle.digest(changed) != oracle.digest(pairs)
    assert oracle.digest(pairs[:3]) != oracle.digest(pairs)


def test_oracle_by_key_class_equals_the_whole_oracle():
    trace = TINY.trace(5)
    whole = naive_window_join(trace, 5.0)
    assert len(whole) > 100
    assert oracle.oracle_digest(trace, 5.0) == oracle.digest(whole)


def test_one_corrupted_pair_fails_the_run(tmp_path, monkeypatch):
    seed = 11
    trace = TINY.trace(seed)
    expected = oracle.oracle_digest(trace, TINY.config(seed).window_seconds)

    (tmp_path / "good").mkdir()
    record = measure.run_once(TINY, seed, trace, False, tmp_path / "good")
    assert run.verdict(record, expected) is None

    honest = JoinSystem.run

    def corrupted(self: JoinSystem):
        result = honest(self)
        result.pairs[0, 1] += 1
        return result

    monkeypatch.setattr(JoinSystem, "run", corrupted)
    (tmp_path / "bad").mkdir()
    record = measure.run_once(TINY, seed, trace, False, tmp_path / "bad")
    assert "differ from the oracle" in run.verdict(record, expected)


def test_a_run_that_raises_fails():
    assert run.verdict({"error": "Traceback ...\nRuntimeError: boom\n"}, (1, 2)) == (
        "RuntimeError: boom"
    )


def test_traced_process_run_reports_every_node(tmp_path):
    workload = WORKLOADS["proc-paced"]
    seed = 3
    trace = workload.trace(seed)
    expected = oracle.oracle_digest(trace, workload.config(seed).window_seconds)
    save_trace(tmp_path / "trace.npz", trace)
    spec = {
        "workload": workload.name,
        "seed": seed,
        "traced": True,
        "trace": str(tmp_path / "trace.npz"),
    }
    record = run.launch(tmp_path / "run", spec, 90.0)
    assert run.verdict(record, expected) is None
    # master, collector and four slaves, plus the measuring process
    assert record["processes"] == 7
    layers = record["layers"]
    assert set(layers) == {n for n, _ in PER_LAYER} - {"trace.overhead_pct"}
    for name in ("wire.messages", "transport.frames", "kernel.probe_calls",
                 "join.probe_units", "workload.replay_lag_max_s"):
        assert layers[name] > 0, name
    assert layers["kernel.pairs"] == expected[0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
