"""Observability overhead benchmark: what tracing and metrics cost.

The observability plane's contract is *near-zero cost when off* (rules
OBS001/OBS002: every hook guards event construction behind
``tracer.enabled`` / ``registry.enabled``) and *bounded cost when on*.
This benchmark quantifies both ends:

* **hot-path micro-costs** — nanoseconds per instrumentation site for
  the disabled guard (the price every un-traced run pays), a tracer
  emitting into a :class:`MemoryExporter`, a tracer emitting into a
  :class:`JsonlExporter`, and the metric instruments (guarded no-op
  counter vs live counter/histogram updates);
* **end-to-end run overhead** — wall time of an identical sim-backend
  run with observability off, with metrics on, with in-memory tracing,
  and with JSONL tracing (transport spans on, the chattiest tracer
  configuration), reported as percent overhead versus the baseline.

The sim backend is used for the end-to-end runs because its wall time
is pure compute (no real sleeps), so tracer overhead is not hidden
inside idle waits.  Each variant runs ``--reps`` times and the fastest
run is published (minimum = least-interference estimate, same rule as
``bench_backends.py``).

Writes a JSON report (CI publishes it as a build artifact; the file is
gitignored — results are machine-specific)::

    python benchmarks/bench_obs.py --out BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
import typing as t

import numpy as np

from repro.config import ObservabilityConfig, SystemConfig
from repro.core.system import JoinSystem
from repro.obs.events import TransportEvent
from repro.obs.exporters import JsonlExporter, MemoryExporter
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


def _best_ns_per_op(
    run_once: t.Callable[[int], None], n_ops: int, reps: int
) -> float:
    """Fastest-of-``reps`` cost of one operation, in nanoseconds."""
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        run_once(n_ops)
        best = min(best, time.perf_counter() - t0)
    return best / n_ops * 1e9


def _emit_loop(tracer: Tracer) -> t.Callable[[int], None]:
    def run(n: int) -> None:
        for i in range(n):
            # The full site cost: guard + event construction + emit.
            if tracer.enabled:
                tracer.emit(
                    TransportEvent(
                        t=float(i),
                        node=2,
                        dst=0,
                        msg="Report",
                        nbytes=64,
                        duration=0.001,
                        phase="send",
                        xfer_seq=i,
                    )
                )

    return run


def bench_hot_paths(args: argparse.Namespace, tmpdir: str) -> dict[str, t.Any]:
    n_emit, n_metric = args.emit_ops, args.metric_ops

    jsonl_path = os.path.join(tmpdir, "bench_tracer.jsonl")
    jsonl_tracer = Tracer([JsonlExporter(jsonl_path)])
    memory_tracer = Tracer([MemoryExporter()])

    registry = MetricsRegistry(node=2)
    live_counter = registry.counter("bench_ops", "benchmark counter")
    live_hist = registry.histogram("bench_lat", "benchmark histogram")
    null_counter = NULL_REGISTRY.counter("bench_ops")

    def guarded_null_counter(n: int) -> None:
        for _ in range(n):
            if NULL_REGISTRY.enabled:
                null_counter.inc()

    def live_counter_inc(n: int) -> None:
        for _ in range(n):
            if registry.enabled:
                live_counter.inc()

    delays = np.arange(n_metric) * 1e-4

    def live_hist_observe(n: int) -> None:
        # One call over an array, the way a slave records a flush.
        if registry.enabled:
            live_hist.observe_many(delays[:n])

    out = {
        "tracer_disabled_guard_ns": _best_ns_per_op(
            _emit_loop(NULL_TRACER), n_emit, args.reps
        ),
        "tracer_memory_emit_ns": _best_ns_per_op(
            _emit_loop(memory_tracer), n_emit, args.reps
        ),
        "tracer_jsonl_emit_ns": _best_ns_per_op(
            _emit_loop(jsonl_tracer), n_emit, args.reps
        ),
        "metrics_disabled_guard_ns": _best_ns_per_op(
            guarded_null_counter, n_metric, args.reps
        ),
        "metrics_counter_inc_ns": _best_ns_per_op(
            live_counter_inc, n_metric, args.reps
        ),
        "metrics_histogram_observe_many_ns_per_value": _best_ns_per_op(
            live_hist_observe, n_metric, args.reps
        ),
    }
    jsonl_tracer.close()
    return {k: round(v, 1) for k, v in out.items()}


def bench_cfg(args: argparse.Namespace) -> SystemConfig:
    return (
        SystemConfig.paper_defaults()
        .scaled(0.05)
        .with_(
            backend="sim",
            num_slaves=args.slaves,
            rate=args.rate,
            run_seconds=args.run_seconds,
            warmup_seconds=min(30.0, args.run_seconds / 4),
            seed=args.seed,
        )
    )


#: End-to-end variants, chattiest last.  ``trace_transport`` is on for
#: the tracing variants so every message send becomes a trace record —
#: the worst realistic event rate.
def _variants(tmpdir: str) -> list[tuple[str, ObservabilityConfig]]:
    return [
        ("off", ObservabilityConfig()),
        ("metrics", ObservabilityConfig(metrics=True)),
        (
            "trace_memory",
            ObservabilityConfig(
                trace_memory=True, trace_transport=True, sample_period=5.0
            ),
        ),
        (
            "trace_jsonl",
            ObservabilityConfig(
                trace_path=os.path.join(tmpdir, "bench_run.jsonl"),
                trace_transport=True,
                sample_period=5.0,
            ),
        ),
    ]


def bench_end_to_end(
    args: argparse.Namespace, tmpdir: str
) -> list[dict[str, t.Any]]:
    cfg = bench_cfg(args)
    rows: list[dict[str, t.Any]] = []
    baseline: float | None = None
    for name, obs in _variants(tmpdir):
        best_wall, trace_records = float("inf"), 0
        for _ in range(max(1, args.reps)):
            t0 = time.perf_counter()
            result = JoinSystem(cfg.with_(obs=obs)).run()
            wall = time.perf_counter() - t0
            if wall < best_wall:
                best_wall = wall
                trace_records = len(result.trace or ())
        if baseline is None:
            baseline = best_wall
        rows.append(
            {
                "variant": name,
                "wall_seconds": round(best_wall, 3),
                "overhead_pct": round(100.0 * (best_wall / baseline - 1.0), 1),
                "trace_records": trace_records,
            }
        )
    return rows


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=1000.0)
    parser.add_argument("--slaves", type=int, default=4)
    parser.add_argument("--run-seconds", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=20130724)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--emit-ops", type=int, default=50_000)
    parser.add_argument("--metric-ops", type=int, default=200_000)
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as tmpdir:
        hot = bench_hot_paths(args, tmpdir)
        runs = bench_end_to_end(args, tmpdir)

    cfg = bench_cfg(args)
    report = {
        "benchmark": "obs",
        "reps": max(1, args.reps),
        "config": {
            "rate": cfg.rate,
            "slaves": cfg.num_slaves,
            "npart": cfg.npart,
            "run_s": cfg.run_seconds,
            "seed": cfg.seed,
            "emit_ops": args.emit_ops,
            "metric_ops": args.metric_ops,
        },
        "hot_path_ns": hot,
        "runs": runs,
        "summary": {
            # The disabled guard is the cost every production run pays
            # at every instrumentation site; it must stay trivial.
            "disabled_guard_ns": hot["tracer_disabled_guard_ns"],
            "guard_is_cheap": hot["tracer_disabled_guard_ns"] < 1000.0,
            "memory_trace_overhead_pct": runs[2]["overhead_pct"],
            "jsonl_trace_overhead_pct": runs[3]["overhead_pct"],
            "metrics_overhead_pct": runs[1]["overhead_pct"],
        },
        "wall_seconds": round(time.perf_counter() - started, 2),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for key, value in hot.items():
        print(f"{key:>32}: {value:>10.1f} ns/op")
    for row in runs:
        print(
            f"{row['variant']:>32}: wall={row['wall_seconds']:.3f}s "
            f"overhead={row['overhead_pct']:+.1f}% "
            f"records={row['trace_records']:,}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
