"""Spans recorded from outside the program, around each layer's calls.

:func:`install` wraps public methods and functions of the ``repro``
layers in the measuring interpreter, before the cluster starts, so the
process backend's forked children inherit the wrappers.  Each span
records its name, start, end, the enclosing span on the same thread
(the span that caused it), the slave it ran for and one number (bytes,
pairs, lateness...).  Spans stay in per-thread columns in memory; each
process writes its own file when its cluster work is done: a child
when its ``ThreadRuntime.join_all`` returns (before it sends its
result), the measuring process after ``JoinSystem.run`` returns.

Two hook sets exist.  The untraced runs that publish end-to-end
numbers install only the clock hooks — modeled t=0 and the replay
lateness, a few hundred calls a run.  Traced runs add every layer.
A hook whose target no longer exists is skipped and reported, so the
benchmark keeps running on code that renamed it.
"""

from __future__ import annotations

import array
import functools
import os
import resource
import sys
import threading
import time
import typing as t
from pathlib import Path

import numpy as np

from repro.core.buffer import MasterBuffer
from repro.core.declustering import DeclusteringController
from repro.core.join_module import JoinModule
from repro.core.kernels import available_kernels, get_kernel
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import PartitionGroup
from repro.core.window import StreamWindow
from repro.net import proc_transport, wire
from repro.obs.metrics import Histogram
from repro.obs.tracer import Tracer
from repro.runtime.thread import ThreadRuntime
from repro.simul.kernel import Simulator
from repro.workload.traces import TraceReplayer

clock = time.perf_counter


class SpanLog:
    """One thread's spans as parallel columns (only that thread appends)."""

    __slots__ = ("name", "start", "end", "parent", "node", "value", "stack")

    def __init__(self) -> None:
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.node = array.array("i")
        self.value = array.array("d")
        self.stack: list[int] = []


class Recorder:
    """Span store of one process, plus the run's clock marks."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.names: list[str] = []
        self.skipped: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self._local = threading.local()
        self._logs: list[SpanLog] = []
        self._lock = threading.Lock()
        #: ``time.monotonic()`` of modeled t=0 (CLOCK_MONOTONIC is
        #: system-wide, so children and parent agree on it).
        self.origin: float | None = None
        #: Modeled "now" of the runtime driving this process.
        self.modeled_now: t.Callable[[], float] | None = None

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def log(self) -> SpanLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = SpanLog()
            with self._lock:
                self._logs.append(log)
        return log

    def call(
        self,
        nid: int,
        fn: t.Callable[..., t.Any],
        args: tuple,
        kwargs: dict,
        node: int = -1,
        entry: t.Callable[[tuple], float] | None = None,
        exit_: t.Callable[[tuple, t.Any], float] | None = None,
    ) -> t.Any:
        log = self.log()
        stack = log.stack
        i = len(log.name)
        log.name.append(nid)
        log.parent.append(stack[-1] if stack else -1)
        log.node.append(node)
        log.value.append(entry(args) if entry is not None else 0.0)
        log.end.append(0.0)
        stack.append(i)
        log.start.append(clock())
        try:
            out = fn(*args, **kwargs)
        finally:
            log.end[i] = clock()
            stack.pop()
        if exit_ is not None:
            log.value[i] = exit_(args, out)
        return out

    def dump(self, tag: str) -> None:
        """Write this process's spans and peak RSS to ``spans-<tag>.npz``."""
        cols: dict[str, list[np.ndarray]] = {
            c: [] for c in ("name", "start", "end", "parent", "node", "value")
        }
        offset = 0
        for log in list(self._logs):
            # Another thread may be mid-append: keep complete rows.
            n = min(len(getattr(log, c)) for c in SpanLog.__slots__[:-1])
            parent = np.frombuffer(log.parent, dtype=np.int64)[:n].copy()
            parent[parent >= 0] += offset
            cols["parent"].append(parent)
            for c in ("name", "start", "end", "node", "value"):
                cols[c].append(np.array(getattr(log, c)[:n]))
            offset += n
        arrays = {
            c: np.concatenate(parts) if parts else np.empty(0)
            for c, parts in cols.items()
        }
        np.savez(
            self.out_dir / f"spans-{tag}.npz",
            names=np.array(self.names, dtype=object),
            origin=np.nan if self.origin is None else self.origin,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            **arrays,
        )


def _patch(rec: Recorder, owner: t.Any, attr: str, make: t.Callable) -> None:
    """Replace ``owner.attr`` by ``make(original)``; for a module-level
    function, also every ``from ... import`` binding of it in ``repro``."""
    original = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if original is None:
        original = getattr(owner, attr, None)
    if original is None:
        rec.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    wrapped = functools.wraps(original)(make(original))
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def _span(
    rec: Recorder,
    owner: t.Any,
    attr: str,
    name: str,
    entry: t.Callable[[tuple], float] | None = None,
    exit_: t.Callable[[tuple, t.Any], float] | None = None,
) -> None:
    nid = rec.name_id(name)

    def make(fn: t.Callable) -> t.Callable:
        def traced(*args: t.Any, **kwargs: t.Any) -> t.Any:
            return rec.call(nid, fn, args, kwargs, entry=entry, exit_=exit_)

        return traced

    _patch(rec, owner, attr, make)


def _after(rec: Recorder, owner: t.Any, attr: str, hook: t.Callable) -> None:
    """Run ``hook(args, result)`` after each call; no span."""

    def make(fn: t.Callable) -> t.Callable:
        def hooked(*args: t.Any, **kwargs: t.Any) -> t.Any:
            out = fn(*args, **kwargs)
            hook(args, out)
            return out

        return hooked

    _patch(rec, owner, attr, make)


def _before(rec: Recorder, owner: t.Any, attr: str, hook: t.Callable) -> None:
    """Run ``hook(args)`` before each call; no span."""

    def make(fn: t.Callable) -> t.Callable:
        def hooked(*args: t.Any, **kwargs: t.Any) -> t.Any:
            hook(args)
            return fn(*args, **kwargs)

        return hooked

    _patch(rec, owner, attr, make)


def install(rec: Recorder, traced: bool) -> None:
    """Install the clock hooks, and with *traced* every layer too."""
    measuring_pid = os.getpid()
    os.register_at_fork(after_in_child=rec._reset)

    # -- always: modeled t=0, the modeled clock and replay lateness -----
    def sim_started(args: tuple) -> None:
        if rec.origin is None:
            sim: Simulator = args[0]
            rec.origin = time.monotonic()
            rec.modeled_now = lambda: sim.now

    def rebased(args: tuple, _out: t.Any) -> None:
        runtime: ThreadRuntime = args[0]
        rec.origin = args[1]
        rec.modeled_now = runtime.now

    def node_done(_args: tuple, _out: t.Any) -> None:
        if os.getpid() != measuring_pid:
            rec.dump(str(os.getpid()))

    def replay_lag(args: tuple) -> float:
        now = rec.modeled_now
        return now() - args[2] if now is not None else 0.0

    _before(rec, Simulator, "run", sim_started)
    _after(rec, ThreadRuntime, "rebase", rebased)
    _after(rec, ThreadRuntime, "join_all", node_done)
    _span(rec, TraceReplayer, "generate", "workload.replay", entry=replay_lag)
    if not traced:
        return

    # -- the layers -----------------------------------------------------
    _span(rec, Simulator, "run", "des.run")
    _span(rec, MasterBuffer, "ingest", "master.ingest")
    _span(rec, MasterBuffer, "drain_for", "master.drain")
    _span(rec, wire, "encode_message", "wire.encode", exit_=lambda a, o: len(o))
    _span(rec, wire, "decode_message", "wire.decode", entry=lambda a: len(a[0]))
    _span(
        rec, proc_transport, "write_frame", "transport.write",
        entry=lambda a: len(a[1]),
    )
    _span(rec, proc_transport.FrameReader, "read_frame", "transport.read")
    _span(rec, JoinModule, "enqueue", "join.enqueue")
    _span(rec, JoinModule, "extract_partition", "move.extract")
    _span(rec, JoinModule, "install_partition", "move.install")
    _span(rec, DeclusteringController, "plan", "reorg.plan")
    _span(rec, PartitionGroup, "split_bucket", "tuning.split")
    _span(
        rec, PartitionGroup, "try_merge_bucket", "tuning.merge",
        exit_=lambda a, o: float(bool(o)),
    )
    for kernel in available_kernels():
        _span(
            rec, get_kernel(kernel), "probe", "kernel.probe",
            exit_=lambda a, o: o.n_pairs,
        )
    _span(
        rec, SlaveMetrics, "record_outputs", "metrics.record_outputs",
        entry=lambda a: len(a[2]) if a[0].gate.active(a[1]) else 0,
    )
    _span(rec, Tracer, "emit", "obs.emit")
    _span(
        rec, Histogram, "observe_many", "obs.observe",
        entry=lambda a: len(a[1]),
    )

    # The sorted view is the program's cache: a call that follows a
    # mutation of the same window (or is its first) rebuilds it.
    mutated: dict[int, bool] = {}

    def mark(args: tuple, *_: t.Any) -> None:
        mutated[id(args[0])] = True

    def committing(args: tuple) -> float:
        fresh = args[0].n_fresh
        if fresh:
            mark(args)
        return float(fresh)

    def expired(args: tuple, dropped: int) -> float:
        if dropped:
            mark(args)
        return float(dropped)

    def view_rebuilt(args: tuple) -> float:
        rebuilt = mutated.get(id(args[0]), True)
        mutated[id(args[0])] = False
        return float(rebuilt)

    _span(rec, StreamWindow, "commit_fresh", "window.commit", entry=committing)
    _span(rec, StreamWindow, "expire_before", "window.expire", exit_=expired)
    _after(rec, StreamWindow, "install_committed", mark)
    _after(rec, StreamWindow, "extract_all", mark)
    _span(
        rec, StreamWindow, "sorted_view", "window.sorted_view",
        entry=view_rebuilt,
    )

    # Work units carry no node id: wrap the generator that makes them so
    # each unit's execute() span is tagged with its slave.
    unit_ids = {k: rec.name_id(f"join.{k}") for k in ("probe", "expire", "tune")}
    other_units = rec.name_id("join.other")

    class NodeUnit:
        __slots__ = ("kind", "cost", "_unit", "_node")

        def __init__(self, unit: t.Any, node: int) -> None:
            self.kind, self.cost = unit.kind, unit.cost
            self._unit, self._node = unit, node

        def execute(self, emit_time: float) -> None:
            rec.call(
                unit_ids.get(self.kind, other_units),
                self._unit.execute, (emit_time,), {}, node=self._node,
            )

    def make_units(fn: t.Callable) -> t.Callable:
        def units(self: JoinModule, *args: t.Any, **kwargs: t.Any) -> t.Any:
            for unit in fn(self, *args, **kwargs):
                yield NodeUnit(unit, self.node_id)

        return units

    _patch(rec, JoinModule, "work_units", make_units)
