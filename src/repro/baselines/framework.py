"""Shared scaffolding for the routing baselines (ATR / CTR).

Both baselines use a simple epoch-driven master (no load reports, no
reorganization — neither scheme migrates state) and light slaves that
only receive shipments and process them.  The slaves reuse the real
metrics, transport and cost model so the comparison against the main
system is apples-to-apples.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.config import SystemConfig
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.protocol import Halt, Shipment
from repro.errors import DeadlockError
from repro.mp.comm import Communicator
from repro.net.sim_transport import SimTransport
from repro.obs.metrics import Histogram
from repro.runtime.sim import SimRuntime
from repro.simul.kernel import Simulator
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload

MASTER_ID = 0

_HALT = object()
_WAKE = object()


@dataclasses.dataclass
class BaselineResult:
    """Metrics of one baseline run (same gate as the main system)."""

    cfg: SystemConfig
    name: str
    duration: float
    delays: Histogram
    slaves: list[dict[str, t.Any]]
    master_comm_time: float
    tuples_generated: int
    pairs: np.ndarray | None = None

    @property
    def avg_delay(self) -> float:
        return self.delays.mean

    @property
    def outputs(self) -> int:
        return self.delays.count

    @property
    def cpu_times(self) -> list[float]:
        return [s["cpu_total"] for s in self.slaves]

    @property
    def comm_times(self) -> list[float]:
        return [s["comm_time"] for s in self.slaves]

    @property
    def aggregate_comm_time(self) -> float:
        return float(np.sum(self.comm_times)) if self.comm_times else 0.0

    @property
    def max_window_bytes(self) -> int:
        return max((s["max_window_bytes"] for s in self.slaves), default=0)

    @property
    def idle_times(self) -> list[float]:
        return [
            max(0.0, self.duration - s["cpu_total"] - s["comm_time"])
            for s in self.slaves
        ]


class LightSlaveMixin:
    """Comm + join loops for a baseline slave.

    Subclasses provide ``self.handle_shipment(shipment)`` returning an
    iterator of :class:`~repro.core.join_module.WorkUnit`-compatible
    objects, plus ``self.window_bytes``.
    """

    rt: t.Any
    comm: Communicator
    metrics: SlaveMetrics
    master_id: int

    def _init_light(self, runtime: t.Any, node_id: int) -> None:
        self.rt = runtime
        self._queue = runtime.make_queue(f"bslave{node_id}.work")

    def processes(self) -> list[t.Generator]:
        return [self.comm_loop(), self.join_loop()]

    def comm_loop(self) -> t.Generator:
        while True:
            msg = yield self.comm.recv(self.master_id)
            if isinstance(msg, Halt):
                yield self._queue.put(_HALT)
                return
            yield self._queue.put(msg)

    def join_loop(self) -> t.Generator:
        rt = self.rt
        while True:
            item = yield self._queue.get()
            if item is _HALT:
                return
            for unit in self.handle_shipment(item):
                t0 = rt.now()
                yield rt.cpu(unit.cost)
                t1 = rt.now()
                kind = (
                    unit.kind
                    if unit.kind in ("probe", "expire", "tune")
                    else "probe"
                )
                self.metrics.charge_cpu(kind, t0, t1)
                unit.execute(t1)
            self.metrics.sample_window(rt.now(), self.window_bytes)

    # Subclass responsibilities ------------------------------------------
    def handle_shipment(self, shipment: Shipment) -> t.Iterator[t.Any]:
        raise NotImplementedError  # pragma: no cover

    @property
    def window_bytes(self) -> int:
        raise NotImplementedError  # pragma: no cover


class EpochMasterBase:
    """Epoch loop shared by the baseline masters.

    Subclasses implement ``route(batch)`` returning ``{slave_id:
    TupleBatch}`` — which tuples (possibly duplicated) each slave
    receives for this epoch.
    """

    def __init__(
        self,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Communicator,
        workload: t.Any,
        slave_ids: t.Sequence[int],
    ) -> None:
        self.cfg = cfg
        self.rt = runtime
        self.comm = comm
        self.workload = workload
        self.slave_ids = sorted(slave_ids)
        self._last_drain = {s: 0.0 for s in self.slave_ids}

    def route(self, batch: t.Any) -> dict[int, t.Any]:
        raise NotImplementedError  # pragma: no cover

    def run(self) -> t.Generator:
        cfg, rt, comm = self.cfg, self.rt, self.comm
        td = cfg.dist_epoch
        epoch = 0
        prev = 0.0
        while (epoch + 1) * td <= cfg.run_seconds + 1e-9:
            boundary = (epoch + 1) * td
            yield rt.sleep_until(boundary)
            batch = self.workload.generate(prev, boundary)
            prev = boundary
            routed = self.route(batch)
            for s in self.slave_ids:
                sub = routed.get(s)
                if sub is None:
                    continue
                yield comm.send(
                    s, Shipment(epoch, self._last_drain[s], boundary, sub)
                )
                self._last_drain[s] = boundary
            epoch += 1
        for s in self.slave_ids:
            yield comm.send(s, Halt(epoch))


def run_baseline(
    name: str,
    cfg: SystemConfig,
    make_master: t.Callable[..., EpochMasterBase],
    make_slave: t.Callable[..., LightSlaveMixin],
    workload: t.Any = None,
    collect_pairs: bool = False,
) -> BaselineResult:
    """Wire and execute one baseline system."""
    cfg = cfg.validated()
    sim = Simulator()
    runtime = SimRuntime(sim)
    gate = MeasurementWindow(cfg.warmup_seconds, cfg.run_seconds)
    transport = SimTransport(sim, cfg.network, cfg.tuple_bytes)
    rng = RngRegistry(cfg.seed)
    workload = workload or TwoStreamWorkload.poisson_bmodel(
        rng, cfg.rate, cfg.b_skew, cfg.key_domain
    )

    slave_ids = [1 + i for i in range(cfg.num_slaves)]
    master_metrics = SlaveMetrics(MASTER_ID, gate)  # comm stats only
    master = make_master(
        cfg,
        runtime,
        Communicator(transport.endpoint(MASTER_ID, master_metrics)),
        workload,
        slave_ids,
    )

    slaves = []
    slave_metrics = []
    for node_id in slave_ids:
        metrics = SlaveMetrics(node_id, gate)
        comm = Communicator(transport.endpoint(node_id, metrics))
        slaves.append(
            make_slave(cfg, runtime, comm, metrics, node_id, collect_pairs)
        )
        slave_metrics.append(metrics)

    processes = [sim.process(master.run(), name=f"{name}.master")]
    for slave in slaves:
        for gen in slave.processes():
            processes.append(sim.process(gen, name=f"{name}.slave"))
    sim.run(None)
    stuck = [p.name for p in processes if p.is_alive]
    if stuck:
        raise DeadlockError(f"{name}: processes never finished: {stuck}")

    merged = Histogram()
    for m in slave_metrics:
        merged.merge(m.delays)
    pairs = None
    if collect_pairs:
        chunks = [c for m in slave_metrics for c in m.pair_chunks()]
        pairs = (
            np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
        )
    return BaselineResult(
        cfg=cfg,
        name=name,
        duration=cfg.run_seconds - cfg.warmup_seconds,
        delays=merged,
        slaves=[m.snapshot() for m in slave_metrics],
        master_comm_time=master_metrics.comm_time,
        tuples_generated=getattr(workload, "tuples_generated", 0),
        pairs=pairs,
    )
