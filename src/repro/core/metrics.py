"""Metrics collection (Section VI-A's evaluation metrics).

The paper reports, per run:

* **average production delay** — for an output tuple joining ``s1`` and
  ``s2`` with ``s1.t > s2.t``, the delay is ``Tclock - s1.t`` at the
  moment the output is produced;
* **communication time** — time a node spends sending/receiving;
* **idle time** — time a node waits for its communication slot;
* **total CPU time** — join processing work;
* **window size within a node** — storage held by a slave.

All recordings are gated on a shared *measurement window*: the paper
starts gathering after a warm-up equal to the window length so windows
are full and the system is in steady state.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.obs.metrics import NULL_REGISTRY, Histogram, MetricsRegistry
from repro.obs.sampler import Reservoir

#: The production-delay statistics, under their historical name.
DelayStats = Histogram

#: Bound on the per-slave occupancy sample reservoir.  Occupancy is
#: sampled once per distribution epoch for the whole run (not gated),
#: so without a bound a long run grows this without limit.
OCCUPANCY_RESERVOIR_CAPACITY = 512


class MeasurementWindow:
    """Shared gate: records count only inside ``[start, stop]``."""

    __slots__ = ("start", "stop")

    def __init__(self, start: float, stop: float = float("inf")) -> None:
        self.start = float(start)
        self.stop = float(stop)

    def active(self, now: float) -> bool:
        return self.start <= now <= self.stop

    def overlap(self, t0: float, t1: float) -> float:
        """Length of ``[t0, t1]`` inside the measurement window."""
        return max(0.0, min(t1, self.stop) - max(t0, self.start))


class SlaveMetrics:
    """Per-slave counters, gated on the measurement window.

    *registry* is the node's typed instrument registry
    (:data:`~repro.obs.metrics.NULL_REGISTRY` when observability is
    off): the ``m_*`` instruments mirror the headline counters for the
    admin endpoint's ``/metrics`` and
    :attr:`~repro.core.system.RunResult.node_metrics`, updated behind
    ``registry.enabled`` (rule OBS002) so disabled runs pay only the
    branch.  ``delays`` is recorded once per flush; with metrics on it
    is itself the registered ``production_delay_seconds`` histogram.
    """

    def __init__(
        self,
        node_id: int,
        gate: MeasurementWindow,
        registry: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self.node_id = node_id
        self.gate = gate
        self.registry = registry
        self.m_outputs = registry.counter(
            "outputs", "joined output tuples emitted (gated)"
        )
        self.m_messages = registry.counter(
            "messages", "transport messages sent or received (gated)"
        )
        self.m_bytes_sent = registry.counter(
            "bytes_sent", "modeled payload bytes sent (gated)"
        )
        self.m_bytes_received = registry.counter(
            "bytes_received", "modeled payload bytes received (gated)"
        )
        self.m_window_bytes = registry.gauge(
            "window_bytes", "window state held by this slave"
        )
        self.m_occupancy = registry.gauge(
            "occupancy", "stream-tuple buffer occupancy [0, 1]"
        )
        self.delays = registry.histogram(
            "production_delay_seconds", "production delay of emitted outputs"
        )
        #: Bins and total of ``delays`` already reported to the collector.
        self._reported_bins = np.zeros_like(self.delays.histogram)
        self._reported_total = 0.0
        # CPU accounting (seconds of modeled work inside the gate).
        self.cpu_probe = 0.0
        self.cpu_expire = 0.0
        self.cpu_tuning = 0.0
        self.cpu_state_move = 0.0
        # Communication accounting (filled by the transport layer).
        self.comm_time = 0.0
        self.idle_time = 0.0
        self.bytes_received = 0
        self.bytes_sent = 0
        self.messages = 0
        # Window / buffer accounting.
        self.max_window_bytes = 0
        self.occupancy_samples = Reservoir(OCCUPANCY_RESERVOIR_CAPACITY)
        self.tuples_processed = 0
        self.outputs_emitted = 0
        self.splits = 0
        self.merges = 0
        self.disk_bytes_read = 0
        self.groups_moved_in = 0
        self.groups_moved_out = 0
        self.state_bytes_moved = 0
        #: (probe_seq_or_s1, window_seq_or_s2) pairs, test mode only,
        #: keyed by owning partition so replication can flush a pid's
        #: output upstream when its state leaves this slave.
        self.pairs: dict[int, list[np.ndarray]] = {}
        self.active_time = 0.0

    # -- recording -----------------------------------------------------------
    @property
    def cpu_total(self) -> float:
        return (
            self.cpu_probe + self.cpu_expire + self.cpu_tuning + self.cpu_state_move
        )

    def charge_cpu(self, kind: str, t0: float, t1: float) -> None:
        span = self.gate.overlap(t0, t1)
        if span <= 0.0:
            return
        if kind == "probe":
            self.cpu_probe += span
        elif kind == "expire":
            self.cpu_expire += span
        elif kind == "tune":
            self.cpu_tuning += span
        elif kind == "state_move":
            self.cpu_state_move += span
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown cpu kind {kind!r}")

    def record_outputs(self, emit_time: float, newer_ts: np.ndarray) -> None:
        if len(newer_ts) == 0 or not self.gate.active(emit_time):
            return
        self.outputs_emitted += len(newer_ts)
        self.delays.observe_many(emit_time - newer_ts)
        if self.registry.enabled:
            self.m_outputs.inc(len(newer_ts))

    def pop_unreported(self) -> Histogram:
        """``delays`` minus what the collector has already been sent.

        On wall backends the join thread may record meanwhile, so the
        bins are read once and the count derived from them: a report's
        bins always sum to its count.  Bins are read before the extrema,
        which ``observe_many`` updates first, so the cumulative
        minimum/maximum shipped cover every reported value and leave the
        collector's global extrema unchanged.
        """
        now = self.delays
        bins, total = now.histogram.copy(), now.total
        interval = Histogram()
        interval.histogram = bins - self._reported_bins
        interval.count = int(interval.histogram.sum())
        interval.total = total - self._reported_total
        interval.minimum, interval.maximum = now.minimum, now.maximum
        self._reported_bins, self._reported_total = bins, total
        return interval

    def record_pairs(self, pid: int, rows: np.ndarray) -> None:
        """File collected join pairs under their partition."""
        self.pairs.setdefault(pid, []).append(rows)

    def pair_chunks(self) -> list[np.ndarray]:
        """All collected pair chunks, in deterministic (pid) order."""
        return [c for pid in sorted(self.pairs) for c in self.pairs[pid]]

    def pop_pairs(self, pid: int) -> np.ndarray | None:
        """Drain partition *pid*'s collected pairs (``None`` if none).

        Called when the pid's state leaves this slave — checkpoint or
        move — so the output travels with the state and survives a
        later crash of this node.
        """
        chunks = self.pairs.pop(pid, None)
        if not chunks:
            return None
        return np.concatenate(chunks)

    def record_comm(self, t0: float, t1: float, nbytes: int, sent: bool) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.comm_time += span
        if self.gate.active(t1):
            self.messages += 1
            if sent:
                self.bytes_sent += nbytes
            else:
                self.bytes_received += nbytes
            if self.registry.enabled:
                self.m_messages.inc()
                if sent:
                    self.m_bytes_sent.inc(nbytes)
                else:
                    self.m_bytes_received.inc(nbytes)

    def record_idle(self, t0: float, t1: float) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.idle_time += span

    def sample_window(self, now: float, window_bytes: int) -> None:
        if self.gate.active(now):
            self.max_window_bytes = max(self.max_window_bytes, window_bytes)
        if self.registry.enabled:
            self.m_window_bytes.set(float(window_bytes))

    def sample_occupancy(self, now: float, occupancy: float) -> None:
        # Occupancy drives the load balancer at all times; samples are
        # kept unconditionally (no gate), but in a bounded decimating
        # reservoir so arbitrarily long runs stay O(1) in memory.
        self.occupancy_samples.add(now, occupancy)
        if self.registry.enabled:
            self.m_occupancy.set(occupancy)

    def snapshot(self) -> dict[str, t.Any]:
        return {
            "node": self.node_id,
            "cpu_total": self.cpu_total,
            "cpu_probe": self.cpu_probe,
            "cpu_expire": self.cpu_expire,
            "cpu_tuning": self.cpu_tuning,
            "cpu_state_move": self.cpu_state_move,
            "comm_time": self.comm_time,
            "idle_time": self.idle_time,
            "bytes_received": self.bytes_received,
            "bytes_sent": self.bytes_sent,
            "messages": self.messages,
            "max_window_bytes": self.max_window_bytes,
            "outputs": self.outputs_emitted,
            "tuples_processed": self.tuples_processed,
            "splits": self.splits,
            "merges": self.merges,
            "disk_bytes_read": self.disk_bytes_read,
            "delay": self.delays.summary(),
        }


class MasterMetrics:
    """Master-side counters."""

    def __init__(
        self,
        gate: MeasurementWindow,
        registry: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self.gate = gate
        self.registry = registry
        self.m_epochs = registry.counter(
            "epochs", "distribution/reorganization epochs completed"
        )
        self.m_reorgs = registry.counter("reorgs", "reorganization rounds run")
        self.m_tuples_ingested = registry.counter(
            "tuples_ingested", "stream tuples ingested by the master"
        )
        self.m_replication_bytes = registry.counter(
            "replication_bytes", "payload bytes shipped for state replication"
        )
        self.m_buffer_bytes = registry.gauge(
            "buffer_bytes", "master partition-buffer backlog"
        )
        self.m_dead_slaves = registry.gauge(
            "dead_slaves", "slaves currently fenced as failed"
        )
        self.comm_time = 0.0
        self.idle_time = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages = 0
        self.max_buffer_bytes = 0
        self.tuples_ingested = 0
        self.epochs = 0
        self.reorgs = 0
        self.moves_ordered = 0
        self.dod_changes: list[tuple[float, int]] = []
        self.supplier_counts: list[tuple[float, int, int, int]] = []
        #: One record per detected slave failure (fault plane): slave,
        #: epoch, detected_at, where, pids, window_bytes_lost, plus
        #: recovered_at / recovery_latency once recovery completes.
        self.failures: list[dict[str, t.Any]] = []
        #: Payload bytes shipped for state replication (tee + forwarded
        #: checkpoints).  Ungated: the fault benchmarks report total
        #: overhead, not just the steady-state share.
        self.replication_bytes = 0

    def record_comm(self, t0: float, t1: float, nbytes: int, sent: bool) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.comm_time += span
        if self.gate.active(t1):
            self.messages += 1
            if sent:
                self.bytes_sent += nbytes
            else:
                self.bytes_received += nbytes

    def record_idle(self, t0: float, t1: float) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.idle_time += span

    def sample_buffer(self, now: float, nbytes: int) -> None:
        if self.gate.active(now):
            self.max_buffer_bytes = max(self.max_buffer_bytes, nbytes)
        if self.registry.enabled:
            self.m_buffer_bytes.set(float(nbytes))
