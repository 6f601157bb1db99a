"""Multicore process backend: one OS process per cluster node.

``backend="process"`` runs the master, each slave and the collector as
real OS processes (``fork``), connected by one full-duplex
``socket.socketpair()`` per node pair carrying :mod:`repro.net.wire`
frames over the :class:`~repro.net.proc_transport.SocketTransport`.
Each child rebuilds the *full* cluster deterministically from the
config (same seed, same round-robin partition map) but spawns only its
own node's generators, driven by a per-process
:class:`~repro.runtime.thread.ThreadRuntime` — the identical generator
code that runs on the DES kernel and the thread backend.

This module also owns what the process and tcp backends share: the
node body :func:`_run_node`, the :class:`ControlConn` control plane
and the launcher phases of :class:`ProcessBackend`, which
:class:`~repro.runtime.tcp.TcpBackend` only re-plugs with a different
way of starting nodes and wiring the mesh.

Node life, over one control connection to the launcher (here one more
socketpair per node):

1. build the cluster, report ``("ready", node_id)``;
2. receive ``("start", origin)``: the shared clock *origin* (a
   ``time.monotonic()`` value — system-wide on Linux — placed slightly
   in the future so every node starts modeled t=0 simultaneously,
   after all setup work), or ``None`` on a host that does not share
   the launcher's clock;
3. rebase runtime and transport, spawn the node's generators;
4. on completion, ship a pickled metrics payload back and exit —
   closing the sockets, so peers observe EOF exactly when the node is
   truly gone.

The launcher passes ``cfg`` and the workload to its children by fork
inheritance; nothing is pickled on the way in.

Crash faults (``crash:<slave>@<t>``) are injected by the launcher:
a timer SIGKILLs the victim's process at the scaled wall time.  Peer
EOF then drives the same ``NodeDown`` detection/recovery machinery the
DES fault plane exercises.  Message and slowdown faults hang off the
simulated transport and are rejected up front.

Distributed tracing: each node owns a node-local
:class:`~repro.obs.tracer.Tracer` writing to a :class:`PipeExporter`,
which batches records back to the launcher as ``("trace", node_id,
batch)`` control messages.  Timestamps are already on the shared
modeled clock (every node rebased onto the broadcast origin), so the
launcher just merges all buffers with
:func:`~repro.obs.exporters.merge_records` — a stable ``(t, node,
seq)`` order — and replays them into the configured sinks.  Batches
flush every :data:`TRACE_BATCH` records *during* the run, so a
SIGKILLed victim loses at most the tail of its trace, never the whole
thing.

Determinism caveat: the joined-output *multiset* is backend-invariant,
but wall-clock scheduling makes per-epoch timing, metric values and —
under a detection timeout — the exact detection epoch load-dependent.
See DESIGN.md ("Runtime backends").
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import socket
import sys
import threading
import time
import traceback
import typing as t
from queue import Empty, Queue

import numpy as np

from repro.config import SystemConfig
from repro.core.cluster import (
    COLLECTOR_ID,
    MASTER_ID,
    Cluster,
    build_cluster,
    slave_node_id,
    standby_node_id,
    trace_meta,
)
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.system import RunResult, master_snapshot, start_admin_server
from repro.errors import ConfigError, DeadlockError
from repro.net.proc_transport import (
    _EOF,
    _TIMED_OUT,
    FrameReader,
    SocketTransport,
    write_frame,
)
from repro.obs.exporters import (
    ConsoleSummaryExporter,
    Exporter,
    JsonlExporter,
    merge_records,
    replay_records,
)
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.thread import ThreadRuntime, reject_unsupported

#: Wall seconds between "all nodes ready" and modeled t=0: covers
#: control-message latency, the rebase and thread spawning in every
#: node.
STARTUP_GRACE = 0.5
#: Wall seconds the launcher waits for every node's "ready" (and a node
#: for the start message).
SETUP_TIMEOUT = 120.0
#: Trace records per ``("trace", ...)`` control message.  Large enough
#: that pickling doesn't dominate high-volume tracing (transport
#: spans); the wall-time bound below covers low-volume tracers.
TRACE_BATCH = 64
#: Maximum wall seconds a buffered trace record may wait before it is
#: flushed to the launcher.  Bounds how much of its trace a SIGKILLed
#: victim can lose, regardless of event rate.
TRACE_FLUSH_WALL_S = 0.05

_Pair = tuple[int, int]
_Sockets = dict[_Pair, tuple[socket.socket, socket.socket]]
_Inbox = Queue[tuple[int, t.Any]]


class ControlConn:
    """Pickled-object control plane over one length-prefixed stream.

    The launcher<->node link of both socket backends: a socketpair for
    a forked node, a handshaken TCP connection for a tcp worker.  The
    control plane is trusted — it only ever links a launcher to nodes
    it started itself; the data plane speaks the versioned wire codec
    only.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._reader = FrameReader(sock)
        self._lock = threading.Lock()

    def send(self, obj: t.Any) -> None:
        payload = pickle.dumps(obj)
        with self._lock:
            write_frame(self.sock, payload)

    def recv(self, timeout: float | None = None) -> t.Any:
        frame = self._reader.read_frame(timeout)
        if frame is _EOF:
            raise EOFError("control connection closed")
        if frame is _TIMED_OUT:
            raise TimeoutError(f"no control message within {timeout:g}s")
        return pickle.loads(frame)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class PipeExporter(Exporter):
    """Trace sink that ships records to the launcher over the control
    connection.

    Records accumulate in a local buffer and flush as ``("trace",
    node_id, batch)`` messages every :data:`TRACE_BATCH` records, when
    the oldest buffered record is :data:`TRACE_FLUSH_WALL_S` old, and
    on :meth:`close`.  The tracer's emit lock already serializes
    ``export`` calls; the exporter's own lock additionally guards the
    buffer against a concurrent ``close``.
    """

    def __init__(self, conn: ControlConn, node_id: int) -> None:
        self._conn = conn
        self._node_id = node_id
        self._buffer: list[dict[str, t.Any]] = []
        self._lock = threading.Lock()
        self._last_flush = time.monotonic()
        self.n_records = 0
        self.n_batches = 0

    def export(self, record: dict[str, t.Any]) -> None:
        with self._lock:
            self._buffer.append(record)
            self.n_records += 1
            if (
                len(self._buffer) >= TRACE_BATCH
                or time.monotonic() - self._last_flush >= TRACE_FLUSH_WALL_S
            ):
                self._flush_locked()

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        if not self._buffer:
            return
        self._conn.send(("trace", self._node_id, self._buffer))
        self._buffer = []
        self.n_batches += 1

    def close(self) -> None:
        with self._lock:
            try:
                self._flush_locked()
            except OSError:  # pragma: no cover
                pass  # launcher gone: nothing left to ship the tail to


def _owner_of(name: str, standby_id: int | None = None) -> int:
    """Cluster node id owning a generator from ``Cluster.processes()``."""
    if name == "master":
        return MASTER_ID
    if name == "standby":
        if standby_id is None:
            raise RuntimeError("standby generator without a standby node")
        return standby_id
    if name.startswith("collector"):
        return COLLECTOR_ID
    if name.startswith("slave"):
        return int(name[len("slave"): name.index(".")])
    raise RuntimeError(f"generator {name!r} has no owning cluster node")


def _node_payload(
    node_id: int, cluster: Cluster, collect_pairs: bool
) -> dict[str, t.Any]:
    """This node's contribution to the RunResult, pickled to the parent."""
    if node_id == MASTER_ID or (
        cluster.standby is not None and node_id == cluster.standby.node_id
    ):
        if node_id != MASTER_ID and not cluster.standby.took_over:
            # Dormant standby: the master survived, so this node has no
            # coordinator state worth shipping.
            return {"took_over": False}
        # In the standby's own process ``acting_master`` resolves to
        # the shadow master after a takeover, so a killed master's
        # payload is reconstructed here, not lost with the process.
        acting = cluster.acting_master
        mm = acting.metrics
        workload = acting.workload
        return {
            "took_over": node_id != MASTER_ID,
            "master": master_snapshot(cluster),
            "dod_trace": list(mm.dod_changes),
            "faults": list(mm.failures),
            "pairs": acting.pair_rows if collect_pairs else [],
            "tuples_generated": (
                workload.tuples_generated
                if hasattr(workload, "tuples_generated")
                else mm.tuples_ingested
            ),
        }
    if node_id == COLLECTOR_ID:
        return {
            "delays": cluster.collector.delays,
            "timeline": cluster.collector.timeline_rows(),
        }
    metrics = cluster.slave_metrics[node_id - 2]
    return {
        "snapshot": metrics.snapshot(),
        "delays": metrics.delays,
        "pairs": metrics.pair_chunks() if collect_pairs else [],
    }


def _obs_payload(node_id: int, cluster: Cluster) -> dict[str, t.Any]:
    """Observability extras every node ships: its local gauge series
    (keys are ``n<node>.<gauge>``, disjoint across children) and its
    metric-registry snapshot (``None`` when metrics are off)."""
    registry = cluster.registries.get(node_id)
    return {
        "series": (
            cluster.sampler.series_dict()
            if cluster.sampler is not None
            else None
        ),
        "metrics": registry.snapshot() if registry is not None else None,
    }


def _ship_error(control: ControlConn, node_id: int) -> None:
    """Ship the exception being handled to the launcher, best effort
    (an unpicklable exception goes as its traceback text alone)."""
    detail = traceback.format_exc()
    for error in (sys.exc_info()[1], None):
        try:
            control.send(("error", node_id, error, detail))
            return
        except Exception:  # noqa: BLE001 - try the plainer message
            continue


def _run_node(
    node_id: int,
    cfg: SystemConfig,
    peers: dict[int, socket.socket],
    control: ControlConn,
    workload: t.Any,
    collect_pairs: bool,
) -> None:
    """Serve one cluster node for one run, on either socket backend.

    *peers* is this node's end of every mesh socket, however the
    connector built them.  Failures ship to the launcher as ``("error",
    node_id, exception, traceback)``.  The node's sockets close on the
    way out, so its peers observe EOF.
    """
    transport = None
    try:
        runtime = ThreadRuntime(time_scale=cfg.time_scale)
        # Node-local tracer: records ship to the launcher and merge
        # there — nodes never touch the JSONL/console sinks themselves.
        tracer = (
            Tracer([PipeExporter(control, node_id)])
            if cfg.obs.tracing
            else NULL_TRACER
        )
        transport = SocketTransport(
            node_id,
            peers,
            cfg.tuple_bytes,
            time_scale=cfg.time_scale,
            tracer=tracer if cfg.obs.trace_transport else NULL_TRACER,
            now_fn=runtime.now,
        )
        cluster = build_cluster(
            cfg,
            runtime,
            transport,
            workload=workload,
            collect_pairs=collect_pairs,
            tracer=tracer,
            local_node=node_id,
        )
        registry = cluster.registries.get(node_id)
        if registry is not None:
            transport.attach_registry(registry)
        # The sampler generator is node-local: every node runs one,
        # and ``local_node`` restricts it to this node's gauges.
        sid = standby_node_id(cfg) if cfg.standby else None
        mine = [
            (name, gen)
            for name, gen in cluster.processes()
            if name == "sampler" or _owner_of(name, sid) == node_id
        ]

        control.send(("ready", node_id))
        msg = control.recv(timeout=SETUP_TIMEOUT)
        if msg[0] != "start":
            raise RuntimeError(f"expected the start barrier, got {msg[0]!r}")
        origin = msg[1]
        if origin is None:
            # Remote host: no shared monotonic clock.  Anchor t=0 to
            # our own clock; the protocol is message-driven, so only
            # wall-time *reporting* shifts by the (bounded) skew.
            origin = time.monotonic() + STARTUP_GRACE
        runtime.rebase(origin)
        transport.rebase(origin)

        # The admin endpoint lives wherever the master runs.
        admin = (
            start_admin_server(cfg, cluster, runtime.now, cfg.backend)
            if node_id == MASTER_ID
            else None
        )
        try:
            for name, gen in mine:
                runtime.spawn(gen, name=name)
            # No local timeout: the launcher owns the deadline and
            # SIGKILLs stragglers, which peers then observe as EOF.
            runtime.join_all()
        finally:
            if admin is not None:
                admin.close()
        # Flush the trace tail before the result: the launcher treats
        # the result message as this node's end-of-stream.
        tracer.close()
        payload = _node_payload(node_id, cluster, collect_pairs)
        payload.update(_obs_payload(node_id, cluster))
        control.send(("result", node_id, payload))
    except Exception:  # noqa: BLE001 - shipped to the launcher
        _ship_error(control, node_id)
    finally:
        if transport is not None:
            transport.close()
        control.close()


def _fork_node(
    node_id: int,
    cfg: SystemConfig,
    sockets: _Sockets,
    controls: dict[int, tuple[socket.socket, socket.socket]],
    workload: t.Any,
    collect_pairs: bool,
) -> None:
    """Forked-child entry (runs post-fork, inherits all fds)."""
    # Keep only this node's socket ends.  Critical: a leaked foreign
    # fd would keep a dead peer's channel open and suppress the EOF
    # its peers and the launcher rely on for failure detection.
    peers: dict[int, socket.socket] = {}
    for (a, b), (sock_a, sock_b) in sockets.items():
        if a == node_id:
            peers[b] = sock_a
            sock_b.close()
        elif b == node_id:
            peers[a] = sock_b
            sock_a.close()
        else:
            sock_a.close()
            sock_b.close()
    for other, (launcher_end, node_end) in controls.items():
        launcher_end.close()
        if other != node_id:
            node_end.close()
    control = ControlConn(controls[node_id][1])
    _run_node(node_id, cfg, peers, control, workload, collect_pairs)


def _pump(nid: int, control: ControlConn, inbox: _Inbox) -> None:
    """Start one reader thread funneling a node's control messages
    into the launcher's inbox.  EOF (node exit, clean or killed) is
    delivered as ``(nid, None)``."""

    def pump() -> None:
        while True:
            try:
                msg = control.recv(None)
            except Exception:  # noqa: BLE001 - EOF/reset/unpickle all mean "node gone"
                inbox.put((nid, None))
                return
            inbox.put((nid, msg))

    threading.Thread(target=pump, name=f"control:n{nid}", daemon=True).start()


def _next_message(
    inbox: _Inbox, deadline: float, stuck: t.Callable[[], str]
) -> tuple[int, t.Any]:
    """The next ``(nid, msg)`` from the inbox; ``DeadlockError`` with
    the ``stuck()`` message once *deadline* passes."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlockError(stuck())
        try:
            return inbox.get(timeout=remaining)
        except Empty:
            continue


class ProcessBackend:
    """One OS process per cluster node (``backend="process"``).

    The only single-host backend where slaves execute their numpy join
    work on separate cores — the GIL bounds the thread backend to one
    core.  :meth:`run` is shared with the tcp backend, which overrides
    only :meth:`_launch`.
    """

    name = "process"
    supports_observability = True

    def run(
        self,
        cfg: SystemConfig,
        collect_pairs: bool = False,
        workload: t.Any = None,
    ) -> RunResult:
        reject_unsupported(cfg, self.name, crash_ok=True)
        try:
            ctx = mp.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX hosts
            raise ConfigError(
                f"the {self.name} backend requires the 'fork' start "
                "method (POSIX only)"
            ) from error

        node_ids = [MASTER_ID, COLLECTOR_ID] + [
            slave_node_id(i) for i in range(cfg.num_slaves)
        ]
        if cfg.standby:
            node_ids.append(standby_node_id(cfg))
        procs: dict[int, t.Any] = {}
        controls: dict[int, ControlConn] = {}
        timers: list[threading.Timer] = []
        inbox: _Inbox = Queue()
        killed: set[int] = set()
        injected: list[dict[str, t.Any]] = []
        traces: dict[int, list[dict[str, t.Any]]] = {}
        try:
            shared_clock = self._launch(
                ctx, cfg, node_ids, workload, collect_pairs, procs, controls
            )
            for nid, control in controls.items():
                _pump(nid, control, inbox)
            origin = self._start_barrier(controls, inbox, shared_clock)
            deadline = origin + cfg.run_seconds * cfg.time_scale * 4.0 + 60.0
            timers = self._arm_crashes(cfg, origin, procs, killed, injected)
            payloads = self._collect(
                inbox, set(node_ids), killed, deadline, traces
            )
        finally:
            for timer in timers:
                timer.cancel()
            for proc in procs.values():
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=10.0)
            for control in controls.values():
                control.close()

        return self._assemble(cfg, payloads, injected, collect_pairs, traces)

    # -- run phases ----------------------------------------------------------
    def _launch(
        self,
        ctx: t.Any,
        cfg: SystemConfig,
        node_ids: list[int],
        workload: t.Any,
        collect_pairs: bool,
        procs: dict[int, t.Any],
        controls: dict[int, ControlConn],
    ) -> set[int]:
        """Start every node, filling *procs* (the processes this
        launcher may SIGKILL) and *controls*; returns the nodes that
        share this host's monotonic clock.

        Full mesh: every unordered node pair shares one socketpair,
        and every node one more to the launcher.  All fds exist before
        the first fork so every child can close exactly the foreign
        ones; ``cfg`` and *workload* reach the children by fork
        inheritance.
        """
        sockets: _Sockets = {}
        for i, a in enumerate(node_ids):
            for b in node_ids[i + 1:]:
                sockets[(a, b)] = socket.socketpair()
        links = {nid: socket.socketpair() for nid in node_ids}
        try:
            for nid in node_ids:
                proc = ctx.Process(
                    target=_fork_node,
                    args=(nid, cfg, sockets, links, workload, collect_pairs),
                    name=f"swjoin-node{nid}",
                    daemon=True,
                )
                procs[nid] = proc
                proc.start()
        finally:
            # The launcher is pure control plane: it must hold no data
            # sockets (a launcher-held fd would suppress peer EOF), and
            # no node ends of the control links (EOF = the node died).
            for sock_a, sock_b in sockets.values():
                sock_a.close()
                sock_b.close()
            for nid, (launcher_end, node_end) in links.items():
                node_end.close()
                controls[nid] = ControlConn(launcher_end)
        return set(node_ids)

    def _start_barrier(
        self,
        controls: dict[int, ControlConn],
        inbox: _Inbox,
        shared_clock: set[int],
    ) -> float:
        """Wait for every node's "ready", then broadcast the start.

        The origin lies slightly in the future, so nobody starts late.
        Nodes on another host get ``None`` and anchor to their own
        clock (see :func:`_run_node`)."""
        waiting = set(controls)
        deadline = time.monotonic() + SETUP_TIMEOUT
        while waiting:
            nid, msg = _next_message(
                inbox,
                deadline,
                lambda: f"nodes {sorted(waiting)} never became ready "
                "(setup wedged)",
            )
            if msg is None:
                raise RuntimeError(f"node {nid} died during setup")
            if msg[0] == "error":
                self._raise_node_error(msg)
            if msg[0] != "ready":
                raise RuntimeError(
                    f"node {nid} sent {msg[0]!r} before the start barrier"
                )
            waiting.discard(nid)
        origin = time.monotonic() + STARTUP_GRACE
        for nid, control in controls.items():
            control.send(("start", origin if nid in shared_clock else None))
        return origin

    def _arm_crashes(
        self,
        cfg: SystemConfig,
        origin: float,
        procs: dict[int, t.Any],
        killed: set[int],
        injected: list[dict[str, t.Any]],
    ) -> list[threading.Timer]:
        """One timer per planned crash: SIGKILL the victim at the
        scaled wall time.  EOF on its sockets is the failure signal."""
        timers = []
        for crash in cfg.faults.crashes:
            nid = (
                MASTER_ID
                if crash.targets_master
                else slave_node_id(crash.slave)
            )
            victim = procs[nid]

            def fire(nid: int = nid, victim: t.Any = victim,
                     at: float = crash.at) -> None:
                if not victim.is_alive():
                    return  # finished before the crash time: nothing fired
                killed.add(nid)
                injected.append(
                    {"action": "crash", "node": nid, "t": at, "info": at}
                )
                victim.kill()

            delay = (origin - time.monotonic()) + crash.at * cfg.time_scale
            timer = threading.Timer(max(0.0, delay), fire)
            timer.daemon = True
            timers.append(timer)
            timer.start()
        return timers

    def _collect(
        self,
        inbox: _Inbox,
        pending: set[int],
        killed: set[int],
        deadline: float,
        traces: dict[int, list[dict[str, t.Any]]],
    ) -> dict[int, dict[str, t.Any]]:
        """Gather result payloads until every node reported or died.

        ``("trace", node_id, batch)`` messages stream in throughout the
        run and accumulate into *traces*; a node killed by the fault
        plane keeps every batch it flushed before dying."""
        payloads: dict[int, dict[str, t.Any]] = {}
        while pending:
            nid, msg = _next_message(
                inbox,
                deadline,
                lambda: f"node processes never finished: {sorted(pending)}",
            )
            if nid not in pending:
                continue  # late EOF after this node already reported
            if msg is None:
                # Node gone without a payload: expected if and only if
                # the fault plane killed it.
                pending.discard(nid)
                if nid not in killed:
                    raise RuntimeError(
                        f"node {nid} process died without reporting "
                        "a result or an error"
                    )
                continue
            if msg[0] == "error":
                self._raise_node_error(msg)
            if msg[0] == "trace":
                traces.setdefault(nid, []).extend(msg[2])
                continue
            payloads[nid] = msg[2]
            pending.discard(nid)
        return payloads

    @staticmethod
    def _raise_node_error(msg: tuple) -> t.NoReturn:
        _, nid, error, detail = msg
        if isinstance(error, BaseException):
            raise RuntimeError(
                f"node {nid} process failed:\n{detail}"
            ) from error
        raise RuntimeError(f"node {nid} process failed:\n{detail}")

    @staticmethod
    def _finish_trace(
        cfg: SystemConfig, traces: dict[int, list[dict[str, t.Any]]]
    ) -> list[dict[str, t.Any]] | None:
        """Merge the per-node trace buffers and drive the configured
        sinks; returns the merged records when ``trace_memory`` asked
        for them on the RunResult."""
        if not cfg.obs.tracing:
            return None
        merged = merge_records(traces)
        sinks: list[Exporter] = []
        if cfg.obs.trace_path:
            sinks.append(JsonlExporter(cfg.obs.trace_path, meta=trace_meta(cfg)))
        if cfg.obs.console_summary:
            sinks.append(ConsoleSummaryExporter())
        replay_records(merged, sinks)
        return merged if cfg.obs.trace_memory else None

    def _assemble(
        self,
        cfg: SystemConfig,
        payloads: dict[int, dict[str, t.Any]],
        injected: list[dict[str, t.Any]],
        collect_pairs: bool,
        traces: dict[int, list[dict[str, t.Any]]],
    ) -> RunResult:
        master = payloads.get(MASTER_ID)
        if cfg.standby:
            standby_payload = payloads.get(standby_node_id(cfg))
            if standby_payload is not None and standby_payload.get("took_over"):
                # The master was killed mid-run; the acting master's
                # payload carries the authoritative coordinator state.
                master = standby_payload
        if master is None:
            raise RuntimeError(
                "master process produced no result payload and no standby "
                "took over"
            )
        collector = payloads[COLLECTOR_ID]
        gate = MeasurementWindow(cfg.warmup_seconds, cfg.run_seconds)

        merged = Histogram()
        snapshots: list[dict[str, t.Any]] = []
        replicated = cfg.replication != "off"
        # Mirrors collect_result: the master's banked pairs come first,
        # and a slave the master fenced contributes none — its output
        # either was banked or re-emerges from the backup's replay.
        pair_chunks: list[np.ndarray] = (
            list(master["pairs"]) if replicated and collect_pairs else []
        )
        fenced = set(master["master"].get("dead_slaves", ()))
        for i in range(cfg.num_slaves):
            nid = slave_node_id(i)
            payload = payloads.get(nid)
            if payload is None:
                # Killed mid-run: its window state (and metrics) died
                # with it — without replication, a degraded run, same
                # as the DES fault plane.
                snapshots.append(SlaveMetrics(nid, gate).snapshot())
                continue
            merged.merge(payload["delays"])
            snapshots.append(payload["snapshot"])
            if not (replicated and nid in fenced):
                pair_chunks.extend(payload["pairs"])

        pairs: np.ndarray | None = None
        if collect_pairs:
            pairs = (
                np.concatenate(pair_chunks)
                if pair_chunks
                else np.empty((0, 2), dtype=np.int64)
            )

        # Per-node gauge series carry disjoint "n<node>.<gauge>" keys,
        # so the cluster view is a plain dict union.
        series: dict[str, list[tuple[float, float]]] | None = None
        if cfg.obs.sample_period is not None:
            series = {}
            for nid in sorted(payloads):
                node_series = payloads[nid].get("series")
                if node_series:
                    series.update(node_series)
        node_metrics: dict[int, dict[str, t.Any]] | None = None
        if cfg.obs.metrics_enabled:
            node_metrics = {
                nid: payloads[nid]["metrics"]
                for nid in sorted(payloads)
                if payloads[nid].get("metrics") is not None
            }

        return RunResult(
            cfg=cfg,
            duration=cfg.run_seconds - cfg.warmup_seconds,
            delays=merged,
            collector_delays=collector["delays"],
            slaves=snapshots,
            master=master["master"],
            dod_trace=master["dod_trace"],
            delay_timeline=collector["timeline"],
            tuples_generated=master["tuples_generated"],
            pairs=pairs,
            trace=self._finish_trace(cfg, traces),
            series=series,
            node_metrics=node_metrics,
            faults=master["faults"],
            injected_faults=injected,
        )
