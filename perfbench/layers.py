"""Per-layer metrics from the span files of one run.

A layer's ``_s`` metric is its self time: each span's duration minus
the part its child spans (same thread) cover, summed over calls and
processes.  The counts are taken at the same boundaries.
"""

from __future__ import annotations

import collections
import typing as t
from pathlib import Path

import numpy as np

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER: list[tuple[str, str]] = [
    ("workload.replay_s", "s"),
    ("workload.replay_lag_max_s", "s"),
    ("master.ingest_s", "s"),
    ("master.drain_s", "s"),
    ("master.bytes_sent", "bytes"),
    ("master.messages", "count"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.messages", "count"),
    ("wire.bytes", "bytes"),
    ("transport.write_s", "s"),
    ("transport.read_wait_s", "s"),
    ("transport.frames", "count"),
    ("join.enqueue_s", "s"),
    ("join.probe_s", "s"),
    ("join.expire_s", "s"),
    ("join.tune_s", "s"),
    ("join.probe_units", "count"),
    ("join.busy_share_max", "ratio"),
    ("join.busy_skew", "ratio"),
    ("kernel.probe_s", "s"),
    ("kernel.probe_calls", "count"),
    ("kernel.pairs", "count"),
    ("window.sorted_view_s", "s"),
    ("window.sorted_view_calls", "count"),
    ("window.sorted_view_rebuild_ratio", "ratio"),
    ("window.commit_s", "s"),
    ("window.expire_s", "s"),
    ("metrics.record_outputs_s", "s"),
    ("metrics.delays_recorded", "count"),
    ("tuning.split_s", "s"),
    ("tuning.splits", "count"),
    ("tuning.merge_s", "s"),
    ("tuning.merges", "count"),
    ("reorg.plan_s", "s"),
    ("move.extract_s", "s"),
    ("move.install_s", "s"),
    ("move.count", "count"),
    ("obs.emit_s", "s"),
    ("obs.events", "count"),
    ("obs.observe_s", "s"),
    ("obs.observations", "count"),
    ("des.self_s", "s"),
    ("collector.backlog_slope", "s/s"),
    ("trace.overhead_pct", "%"),
]

#: Span name -> (self-time metric, call-count metric, value-sum metric).
SPAN_METRICS: dict[str, tuple[str | None, str | None, str | None]] = {
    "workload.replay": ("workload.replay_s", None, None),
    "master.ingest": ("master.ingest_s", None, None),
    "master.drain": ("master.drain_s", None, None),
    "wire.encode": ("wire.encode_s", "wire.messages", "wire.bytes"),
    "wire.decode": ("wire.decode_s", None, None),
    "transport.write": ("transport.write_s", "transport.frames", None),
    "transport.read": ("transport.read_wait_s", None, None),
    "join.enqueue": ("join.enqueue_s", None, None),
    "join.probe": ("join.probe_s", "join.probe_units", None),
    "join.expire": ("join.expire_s", None, None),
    "join.tune": ("join.tune_s", None, None),
    "kernel.probe": ("kernel.probe_s", "kernel.probe_calls", "kernel.pairs"),
    "window.sorted_view": (
        "window.sorted_view_s", "window.sorted_view_calls", None,
    ),
    "window.commit": ("window.commit_s", None, None),
    "window.expire": ("window.expire_s", None, None),
    "metrics.record_outputs": (
        "metrics.record_outputs_s", None, "metrics.delays_recorded",
    ),
    "tuning.split": ("tuning.split_s", "tuning.splits", None),
    "tuning.merge": ("tuning.merge_s", None, "tuning.merges"),
    "reorg.plan": ("reorg.plan_s", None, None),
    "move.extract": ("move.extract_s", "move.count", None),
    "move.install": ("move.install_s", None, None),
    "obs.emit": ("obs.emit_s", "obs.events", None),
    "obs.observe": ("obs.observe_s", None, "obs.observations"),
    "des.run": ("des.self_s", None, None),
}

#: Spans that are a slave's join work (its busy time).
BUSY_SPANS = ("join.probe", "join.expire", "join.tune", "join.other")


class SpanTotals(t.NamedTuple):
    self_s: dict[str, float]
    calls: dict[str, int]
    value_sum: dict[str, float]
    value_max: dict[str, float]
    busy_by_node: dict[int, float]


def load(span_dir: Path) -> list[dict[str, t.Any]]:
    """Every process's span file of one run."""
    files = []
    for path in sorted(span_dir.glob("spans-*.npz")):
        with np.load(path, allow_pickle=True) as data:
            files.append({k: data[k] for k in data.files})
    return files


def totals(files: list[dict[str, t.Any]]) -> SpanTotals:
    self_s: dict[str, float] = collections.defaultdict(float)
    calls: dict[str, int] = collections.defaultdict(int)
    value_sum: dict[str, float] = collections.defaultdict(float)
    value_max: dict[str, float] = collections.defaultdict(float)
    busy: dict[int, float] = collections.defaultdict(float)
    for f in files:
        names = [str(n) for n in f["names"]]
        name = f["name"].astype(np.int64)
        if not len(name):
            continue
        dur = np.maximum(f["end"] - f["start"], 0.0)
        parent = f["parent"].astype(np.int64)
        nested = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        k = len(names)
        own_by = np.bincount(name, weights=own, minlength=k)
        calls_by = np.bincount(name, minlength=k)
        value = f["value"]
        sum_by = np.bincount(name, weights=value, minlength=k)
        max_by = np.zeros(k)
        np.maximum.at(max_by, name, value)
        for i, n in enumerate(names):
            if not calls_by[i]:
                continue
            self_s[n] += float(own_by[i])
            calls[n] += int(calls_by[i])
            value_sum[n] += float(sum_by[i])
            value_max[n] = max(value_max[n], float(max_by[i]))
        for n in BUSY_SPANS:
            if n in names:
                mask = name == names.index(n)
                for node, d in zip(f["node"][mask], dur[mask]):
                    busy[int(node)] += float(d)
    return SpanTotals(self_s, calls, value_sum, value_max, busy)


def layer_metrics(
    files: list[dict[str, t.Any]], wall_s: float, extra: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_pct`` (which compares
    runs); *extra* supplies the ones read from the ``RunResult``."""
    tot = totals(files)
    out = {name: 0.0 for name, _ in PER_LAYER if name != "trace.overhead_pct"}
    for span, (own, count, summed) in SPAN_METRICS.items():
        if own:
            out[own] += tot.self_s.get(span, 0.0)
        if count:
            out[count] += tot.calls.get(span, 0)
        if summed:
            out[summed] += tot.value_sum.get(span, 0.0)
    out["workload.replay_lag_max_s"] = tot.value_max.get("workload.replay", 0.0)
    views = tot.calls.get("window.sorted_view", 0)
    if views:
        rebuilt = tot.value_sum.get("window.sorted_view", 0.0)
        out["window.sorted_view_rebuild_ratio"] = rebuilt / views
    busy = [b for b in tot.busy_by_node.values() if b > 0]
    if busy and wall_s > 0:
        out["join.busy_share_max"] = max(busy) / wall_s
        out["join.busy_skew"] = max(busy) / (sum(busy) / len(busy))
    out.update(extra)
    return out
