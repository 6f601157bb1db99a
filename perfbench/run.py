"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

For one workload (see ``perfbench/workloads.py``) it generates the
trace from ``--seed`` and the oracle's digest of it, outside every
timed region, then makes measured runs, each in a fresh interpreter
(``perfbench/measure.py``), until ``--seconds`` are used.  Each run
replays the trace through ``JoinSystem(..., collect_pairs=True,
workload=TraceReplayer(trace))``.

A run is one operation.  It fails if it raises, misses its deadline,
or returns a joined-pair multiset other than ``naive_window_join``'s
(compared by digest, ``perfbench/oracle.py``).  A failed run publishes
no timings and is never retried.

``--trace 0`` prints the end-to-end metrics, from untraced runs: time
metrics as medians over runs, delay percentiles over all runs' delays
pooled.  On CPU-bound workloads the time metrics are scaled to a
reference host speed (see ``REF_HOST_S``); the summary also prints them
as measured.
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics of the traced ones (``perfbench/spans.py``), plus the
tracing overhead between the two.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import typing as t
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import oracle  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402
from repro.core.metrics import DelayStats  # noqa: E402
from repro.workload.traces import save_trace  # noqa: E402

END_TO_END: list[tuple[str, str]] = [
    ("throughput_tps", "tuples/s"),
    ("cpu_s", "s"),
    ("delay_p50_s", "s"),
    ("delay_p99_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

#: Runs made however short ``--seconds`` is (untraced; traced mode
#: makes this many of each kind).
MIN_RUNS = 3
#: A run that takes longer than this has failed.
RUN_DEADLINE_S = 90.0
#: No run starts once the invocation is this old, so it ends in time.
BUDGET_S = 160.0
#: ``host_time_s()`` on the reference host (2-vCPU Xeon VM, CPython
#: 3.11).  The time metrics of CPU-bound workloads (``throughput_tps``,
#: ``cpu_s``, ``setup_s``) are scaled to that host's speed, measured
#: right before and after each run: a shared host's speed drifts by a
#: third within minutes, which must not read as a change in the
#: program.  Paced multi-process runs are left as measured: their CPU
#: does not follow this single-threaded probe (scaling widened the
#: ten-seed spread of ``proc-paced`` ``cpu_s`` from 0.09 to 0.12).
REF_HOST_S = 0.07
#: Backlog slope (s of delay per s) above which a workload is flagged
#: as running beyond its sustainable rate.
BACKLOG_FLAG = 0.01


_HOST_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 200_000)


def host_time_s() -> float:
    """Median time of a fixed loop of sorting, small numpy calls and
    interpreter work that uses no program code: how slow the host is
    right now."""
    small = _HOST_KEYS[:64]
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        order = np.argsort(_HOST_KEYS, kind="stable")
        np.searchsorted(_HOST_KEYS[order], _HOST_KEYS)
        for _ in range(1_000):
            np.searchsorted(small, np.concatenate((small[:8], small[-8:])))
        counts: dict[int, int] = {}
        for i in range(100_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def launch(run_dir: Path, spec: dict[str, t.Any], deadline: float) -> dict:
    """One measured run in a fresh interpreter; its record, or an error."""
    run_dir.mkdir()
    (run_dir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.measure", str(run_dir)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        return {"error": f"missed its {deadline:.0f} s deadline"}
    finally:
        # The run has its own process group: this also stops any node
        # process a crashed run left behind, and waits until it is gone.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    result = run_dir / "result.json"
    if not result.exists():
        return {"error": f"exited with code {proc.returncode} and no record"}
    return json.loads(result.read_text())


def verdict(record: dict[str, t.Any], expected: oracle.Digest) -> str | None:
    """Why the run failed, or None when it counts."""
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    got = (record["count"], record["digest"])
    if got != tuple(expected):
        return (
            f"pairs differ from the oracle: {got[0]} pairs, "
            f"{expected[0]} expected (digest {got[1]:#x} vs {expected[1]:#x})"
        )
    return None


def pooled_delays(records: list[dict[str, t.Any]]) -> DelayStats:
    pooled = DelayStats()
    for r in records:
        part = DelayStats()
        d = r["delays"]
        part.count, part.total = d["count"], d["total"]
        part.minimum, part.maximum = d["minimum"], d["maximum"]
        part.histogram[:] = d["histogram"]
        pooled.merge(part)
    return pooled


def median_of(records: list[dict[str, t.Any]], key: t.Callable) -> float:
    return statistics.median(key(r) for r in records)


def throughput(r: dict[str, t.Any]) -> float:
    return r["tuples"] / r["wall_s"]


def host_factor(r: dict[str, t.Any]) -> float:
    """How many times slower than the reference host this run's host was."""
    return r["host_s"] / REF_HOST_S


def end_to_end(
    records: list[dict[str, t.Any]], cpu_bound: bool
) -> dict[str, float]:
    delays = pooled_delays(records)
    scale = host_factor if cpu_bound else (lambda r: 1.0)
    return {
        "throughput_tps": median_of(records, lambda r: throughput(r) * scale(r)),
        "cpu_s": median_of(records, lambda r: r["cpu_s"] / scale(r)),
        "delay_p50_s": delays.percentile(50),
        "delay_p99_s": delays.percentile(99),
        "setup_s": median_of(records, lambda r: r["setup_s"] / scale(r)),
        "peak_rss_mb": median_of(records, lambda r: r["peak_rss_mb"]),
    }


def per_layer(
    workload: Workload,
    untraced: list[dict[str, t.Any]],
    traced: list[dict[str, t.Any]],
) -> dict[str, float]:
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name, _ in PER_LAYER
        if name != "trace.overhead_pct"
    }
    # Flat-out runs pay tracing in wall time, paced runs in CPU.
    plain = end_to_end(untraced, workload.cpu_bound)
    slowed = end_to_end(traced, workload.cpu_bound)
    if workload.cpu_bound:
        ratio = plain["throughput_tps"] / slowed["throughput_tps"]
    else:
        ratio = slowed["cpu_s"] / plain["cpu_s"]
    out["trace.overhead_pct"] = (ratio - 1.0) * 100.0
    return out


def bench(args: argparse.Namespace, workload: Workload, work: Path) -> int:
    started = time.monotonic()
    cfg = workload.config(args.seed)
    trace = workload.trace(args.seed)
    expected = oracle.oracle_digest(trace, cfg.window_seconds)
    save_trace(work / "trace.npz", trace)
    print(
        f"{workload.name}: {len(trace)} tuples, {expected[0]} oracle pairs, "
        f"inputs ready in {time.monotonic() - started:.1f} s",
        file=sys.stderr,
    )

    kinds = itertools.cycle([False, True] if args.trace else [False])
    runs: list[tuple[bool, dict[str, t.Any], str | None]] = []
    durations: list[float] = []
    measuring = time.monotonic()
    host_before = host_time_s()
    for i, traced in enumerate(kinds):
        typical = statistics.median(durations) if durations else 0.0
        used = time.monotonic() - measuring
        if i >= MIN_RUNS * (2 if args.trace else 1) and used + typical > args.seconds:
            break
        left = BUDGET_S - (time.monotonic() - started)
        if left < 10.0:
            break
        spec = {
            "workload": workload.name,
            "seed": args.seed,
            "traced": traced,
            "trace": str(work / "trace.npz"),
        }
        t0 = time.monotonic()
        record = launch(work / f"run-{i}", spec, min(RUN_DEADLINE_S, left))
        durations.append(time.monotonic() - t0)
        host_after = host_time_s()
        record["host_s"] = (host_before + host_after) / 2.0
        host_before = host_after
        shutil.rmtree(work / f"run-{i}", ignore_errors=True)
        failure = verdict(record, expected)
        runs.append((traced, record, failure))
        status = (
            f"FAILED: {failure}"
            if failure
            else f"ok, wall {record['wall_s']:.2f} s, cpu {record['cpu_s']:.2f} s, "
            f"set-up {record['setup_s']:.3f} s, {record['processes']} processes"
        )
        kind = "traced" if traced else "untraced"
        print(f"  run {i} ({kind}, {durations[-1]:.1f} s): {status}", file=sys.stderr)
        for hook in record.get("skipped_hooks", []) if i == 0 else []:
            print(f"  note: hook target {hook} not found, layer reads 0", file=sys.stderr)

    good = [r for _, r, f in runs if f is None]
    untraced = [r for tr, r, f in runs if f is None and not tr]
    traced = [r for tr, r, f in runs if f is None and tr]
    failed = sum(1 for *_, f in runs if f is not None)
    units = dict(PER_LAYER) if args.trace else dict(END_TO_END)
    metrics: dict[str, float] = {}
    if untraced and (traced or not args.trace):
        shown = end_to_end(untraced, workload.cpu_bound)
        metrics = per_layer(workload, untraced, traced) if args.trace else shown
        print(
            f"{workload.name}: {len(untraced)} untraced runs, "
            f"{pooled_delays(untraced).count} delays pooled, "
            f"{failed}/{len(runs)} runs failed"
        )
        for name, value in shown.items():
            print(f"  {name:<16} {value:14.6g} {dict(END_TO_END)[name]}")
        print(
            f"  as measured: throughput {median_of(untraced, throughput):.6g} "
            f"tuples/s, cpu {median_of(untraced, lambda r: r['cpu_s']):.6g} s, "
            f"host {median_of(untraced, host_factor):.4g}x the reference time"
        )
        if args.trace:
            for name, value in metrics.items():
                print(f"  {name:<34} {value:14.6g} {units[name]}")
    if good:
        slope = statistics.median(r["backlog_slope"] for r in good)
        lag = max(r["replay_lag_max_s"] for r in good)
        flag = slope > BACKLOG_FLAG
        print(
            f"  sustainability: backlog slope {slope:.4g} s/s, "
            f"replay lag max {lag:.4g} s"
            + (" -- FLAG: backlog grows, rate above sustainable" if flag else "")
        )
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": len(runs),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if metrics else 1


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        return bench(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it


if __name__ == "__main__":
    raise SystemExit(main())
