"""One measured run, in a fresh interpreter::

    python3 -m perfbench.measure RUN_DIR

``RUN_DIR/spec.json`` names the workload, the seed, whether to trace,
and the trace file.  The run writes its span files into ``RUN_DIR``
and its record to ``RUN_DIR/result.json`` last; a run that raises
records the error instead.  A fresh interpreter per run keeps one
run's heap and allocator state out of the next one's timings.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import typing as t
from pathlib import Path

import numpy as np

from perfbench import layers, oracle, spans
from perfbench.workloads import WORKLOADS, Workload
from repro.core.system import JoinSystem, RunResult
from repro.data.tuples import TupleBatch
from repro.workload.traces import TraceReplayer, load_trace


def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it reaped."""
    mine = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return mine.ru_utime + mine.ru_stime + kids.ru_utime + kids.ru_stime


def backlog_slope(result: RunResult) -> float:
    """Slope of the per-epoch mean delay over the measured window, in
    modeled seconds of delay per modeled second: above zero, the
    backlog grows."""
    cfg = result.cfg
    rows = [
        (epoch * cfg.dist_epoch, mean)
        for epoch, outputs, mean in result.delay_timeline
        if outputs and epoch * cfg.dist_epoch >= cfg.warmup_seconds
    ]
    if len(rows) < 2:
        return 0.0
    x, y = np.array(rows).T
    return float(np.polyfit(x, y, 1)[0])


def run_once(
    workload: Workload,
    seed: int,
    trace: TupleBatch,
    traced: bool,
    run_dir: Path,
) -> dict[str, t.Any]:
    rec = spans.Recorder(run_dir)
    spans.install(rec, traced)
    cfg = workload.config(seed)
    replayer = TraceReplayer(trace)

    cpu0 = cpu_seconds()
    started = time.monotonic()
    result = JoinSystem(cfg, collect_pairs=True, workload=replayer).run()
    ended = time.monotonic()
    cpu = cpu_seconds() - cpu0
    rec.dump("main")

    files = layers.load(run_dir)
    origins = [float(f["origin"]) for f in files if np.isfinite(f["origin"])]
    if not origins:
        raise RuntimeError("no process recorded modeled t=0")
    origin = min(origins)
    count, mixed = oracle.digest(result.pairs)
    slope = backlog_slope(result)
    delays = result.delays
    record: dict[str, t.Any] = {
        "count": count,
        "digest": mixed,
        "tuples": len(trace),
        "setup_s": origin - started,
        "wall_s": ended - origin,
        "cpu_s": cpu,
        "peak_rss_mb": sum(int(f["maxrss_kb"]) for f in files) / 1024.0,
        "processes": len(files),
        "delays": {
            "count": delays.count,
            "total": delays.total,
            "minimum": delays.minimum,
            "maximum": delays.maximum,
            "histogram": delays.histogram.tolist(),
        },
        "backlog_slope": slope,
        "replay_lag_max_s": layers.totals(files).value_max.get(
            "workload.replay", 0.0
        ),
        "skipped_hooks": rec.skipped,
    }
    if traced:
        record["layers"] = layers.layer_metrics(
            files,
            ended - origin,
            {
                "master.bytes_sent": float(result.master["bytes_sent"]),
                "master.messages": float(result.master["messages"]),
                "collector.backlog_slope": slope,
            },
        )
    return record


def main(argv: list[str]) -> int:
    run_dir = Path(argv[0])
    spec = json.loads((run_dir / "spec.json").read_text())
    try:
        record = run_once(
            WORKLOADS[spec["workload"]],
            spec["seed"],
            load_trace(spec["trace"]),
            spec["traced"],
            run_dir,
        )
    except Exception:  # noqa: BLE001 - a failed run is reported, not raised
        record = {"error": traceback.format_exc()}
    partial = run_dir / "result.json.part"
    partial.write_text(json.dumps(record))
    partial.rename(run_dir / "result.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
