"""The collector node.

Join results from the slaves are routed to a collector that merges the
query results for delivery to users (Figure 1).  Here each slave sends
a per-epoch :class:`~repro.core.protocol.ResultReport` carrying a delay
statistics snapshot; the collector runs one receiver process per slave
(they terminate on the slave's Halt) and merges everything into a
global :class:`~repro.obs.metrics.Histogram` — which must equal the
sum of the slaves' local statistics, bin for bin, a property the
integration tests assert.
"""

from __future__ import annotations

import typing as t

from repro.core.metrics import MeasurementWindow
from repro.core.protocol import Halt, ResultReport
from repro.errors import ProtocolError
from repro.faults.markers import NodeDown
from repro.mp.comm import Communicator
from repro.obs.metrics import Histogram


class CollectorMetrics:
    """Comm accounting for the collector (duck-typed CommStats)."""

    def __init__(self, gate: MeasurementWindow) -> None:
        self.gate = gate
        self.comm_time = 0.0
        self.idle_time = 0.0
        self.bytes_received = 0
        self.messages = 0

    def record_comm(self, t0: float, t1: float, nbytes: int, sent: bool) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.comm_time += span
        if self.gate.active(t1):
            self.messages += 1
            if not sent:
                self.bytes_received += nbytes

    def record_idle(self, t0: float, t1: float) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.idle_time += span


class CollectorNode:
    """Merges result statistics streamed by the slaves."""

    def __init__(
        self,
        node_id: int,
        comm: Communicator,
        metrics: CollectorMetrics,
        slave_ids: t.Sequence[int],
    ) -> None:
        self.node_id = node_id
        self.comm = comm
        self.metrics = metrics
        self.slave_ids = sorted(slave_ids)
        self.delays = Histogram()
        self.reports_received = 0
        self.per_slave_outputs: dict[int, int] = {s: 0 for s in self.slave_ids}
        #: Per-epoch ``(outputs, total_delay)``: the delay/throughput
        #: timeline of the run.
        self.timeline: dict[int, tuple[int, float]] = {}

    def timeline_rows(self) -> list[tuple[int, int, float]]:
        """Sorted ``(epoch, outputs, mean_delay)`` rows."""
        return [
            (epoch, outputs, total / outputs)
            for epoch, (outputs, total) in sorted(self.timeline.items())
        ]

    def processes(self) -> list[t.Generator]:
        return [self._receiver(s) for s in self.slave_ids]

    def _receiver(self, slave: int) -> t.Generator:
        while True:
            msg = yield self.comm.recv(slave)
            if isinstance(msg, Halt):
                return
            if isinstance(msg, NodeDown):
                # The slave crashed: its result stream simply ends
                # (reports already merged stay counted).
                return
            if not isinstance(msg, ResultReport):
                raise ProtocolError(
                    f"collector expected ResultReport/Halt from {slave}, "
                    f"got {type(msg).__name__}"
                )
            self.reports_received += 1
            stats: Histogram = msg.stats
            self.per_slave_outputs[slave] += stats.count
            self.delays.merge(stats)
            if stats.count:
                outputs, total = self.timeline.get(msg.epoch, (0, 0.0))
                self.timeline[msg.epoch] = (
                    outputs + stats.count,
                    total + stats.total,
                )
