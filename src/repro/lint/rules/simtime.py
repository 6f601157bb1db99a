"""Simulated-time purity rules.

**SIM001 — no wall-clock reads.**  Simulated components must take time
from their runtime (``rt.now()``), never from the host: a single
``time.time()`` inside ``simul``/``core``/``net.sim_transport`` makes a
run irreproducible and silently skews the Figures 7-10 reproduction.
Only the wall-clock-backed thread runtime, the thread transport and the
CLI (which reports wall time *about* a run, not *inside* it) may touch
the host clock.

**SIM003 — no float equality on simulated timestamps.**  Simulated
timestamps are float64 seconds built from epoch arithmetic; comparing
them with ``==``/``!=`` works until a rescaled epoch length stops being
exactly representable.  Ordering comparisons and tolerance windows are
fine; exact equality is not.
"""

from __future__ import annotations

import ast
import typing as t

from repro.lint.astutil import ImportTable, terminal_name
from repro.lint.finding import Finding
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile

#: Host-clock reads (and wall-clock sleeps) banned outside the allowlist.
WALL_CLOCK_NAMES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Files that legitimately touch the host clock: the wall-clock-backed
#: thread runtime and transport, the socket backends' shared runtime
#: and transport, and the CLI's elapsed-time reporting.
WALL_CLOCK_ALLOWED_SUFFIXES: tuple[str, ...] = (
    "repro/runtime/thread.py",
    "repro/runtime/process.py",
    "repro/net/thread_transport.py",
    "repro/net/proc_transport.py",
    # The TCP connector is real-socket infrastructure: handshake
    # timeouts and retry backoff sleeps are wall-clock by nature.
    "repro/net/tcp_transport.py",
    # The admin HTTP server reports real uptime: it is wall-clock
    # infrastructure by definition, never part of the modeled cluster.
    "repro/obs/admin.py",
    "repro/cli.py",
)


@register
class NoWallClock(FileRule):
    """SIM001: wall-clock reads outside the thread runtime/CLI."""

    id = "SIM001"
    summary = (
        "no host-clock reads (time.time/perf_counter/datetime.now) outside "
        "runtime/thread.py, net/thread_transport.py and cli.py"
    )

    def check_file(self, src: SourceFile) -> t.Iterator[Finding]:
        if src.path.endswith(WALL_CLOCK_ALLOWED_SUFFIXES):
            return
        imports = ImportTable(src.tree)
        seen: set[tuple[int, str]] = set()
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            full = imports.resolve(node)
            if full in WALL_CLOCK_NAMES and (node.lineno, full) not in seen:
                seen.add((node.lineno, full))
                yield Finding(
                    path=src.path,
                    line=node.lineno,
                    rule=self.id,
                    message=(
                        f"wall-clock read `{full}` — simulated components "
                        "must take time from the runtime (rt.now())"
                    ),
                )


#: Call names whose result is a simulated timestamp.
_TS_CALL_NAMES = frozenset({"now", "min_ts", "max_ts"})
#: Variable/attribute names conventionally holding simulated timestamps.
_TS_NAMES = frozenset(
    {
        "ts",
        "t0",
        "t1",
        "now",
        "epoch_start",
        "epoch_end",
        "cutoff_ts",
        "deadline",
        "timestamp",
        "sim_time",
        "arrival_ts",
        "posted_at",
    }
)


def _is_timestampish(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in _TS_CALL_NAMES
    return terminal_name(node) in _TS_NAMES


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register
class NoFloatTimestampEquality(FileRule):
    """SIM003: ``==``/``!=`` on simulated timestamps."""

    id = "SIM003"
    summary = (
        "no float equality on simulated timestamps (use ordering or an "
        "explicit tolerance)"
    )

    def check_file(self, src: SourceFile) -> t.Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_none(left) or _is_none(right):
                    continue
                if _is_timestampish(left) or _is_timestampish(right):
                    yield Finding(
                        path=src.path,
                        line=node.lineno,
                        rule=self.id,
                        message=(
                            "float equality on a simulated timestamp — "
                            "timestamps come from epoch arithmetic; compare "
                            "with ordering or an explicit tolerance"
                        ),
                    )
                    break
