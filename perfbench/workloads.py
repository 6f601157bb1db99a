"""The benchmark's workloads, and why each one is there.

Every workload joins two Poisson streams with b-model keys at the
paper's geometry shrunk by ``scaled(0.05)``.  The trace is generated
from the seed outside every timed region and ends three distribution
epochs before ``run_seconds``, so every backend ingests all of it and
the joined-pair multiset is the same on every backend.

Claims against the benchmark must also hold on :data:`HELD_OUT_SEED`,
a seed no change may be tuned on.

Left out on purpose (each is a defect in the program, measured at the
``benchmarks/bench_backends.py`` geometry unless stated; add the
workload back once its defect is fixed):

* the ``thread`` backend: ``JoinModule._drain`` iterates a mini-buffer
  deque while the slave's receive thread appends to it, so any backlog
  raises ``RuntimeError: deque mutated during iteration``;
* the ``tcp`` backend, and ``process`` above saturation: the same race
  failed 3 of 6 ``tcp`` runs and 1 of 8 ``process`` runs, and 3 of 3
  ``process``/``tcp`` runs at ``npart=60`` on a compressed clock;
* the ``indexed`` kernel on ``process``/``tcp``: about 1,250 pairs
  short of the oracle with no error raised, in 1 of 9 paced ``process``
  runs and 1 of 2 ``tcp`` runs.

``blocknlj`` on ``process`` paced below saturation failed 0 of 14 runs,
which is why ``proc-paced`` is paced and uses that kernel.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.config import CostModelConfig, ObservabilityConfig, SystemConfig
from repro.data.tuples import TupleBatch
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload

#: The seed a claimed gain must also hold on (choosing-metrics §6).
HELD_OUT_SEED = 20130724

#: Near-zero modeled costs, as in ``benchmarks/bench_backends.py``: the
#: wall backends sleep the modeled cost, so zeroing it leaves the real
#: compute as the only load.
CHEAP_COST = CostModelConfig(
    tuple_cost=1e-7,
    scan_byte_cost=1e-13,
    state_move_byte_cost=1e-12,
    expire_byte_cost=0.0,
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: One line, mirrored in BENCHMARK.json.
    why: str
    #: ``SystemConfig.with_`` fields on top of ``scaled(0.05)``.
    fields: dict[str, t.Any]
    #: One process computing flat out (a closed loop on the DES): its
    #: wall times are CPU work and move with the host's speed.  If
    #: False the run is paced (an open loop), its throughput is fixed
    #: by the schedule and only checks that the schedule was kept.
    cpu_bound: bool
    obs: ObservabilityConfig = ObservabilityConfig()

    def config(self, seed: int) -> SystemConfig:
        cfg = SystemConfig.paper_defaults().scaled(0.05).with_(
            seed=seed, **self.fields
        )
        return dataclasses.replace(cfg, obs=self.obs).validated()

    def trace(self, seed: int) -> TupleBatch:
        cfg = self.config(seed)
        source = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(seed), cfg.rate, cfg.b_skew, cfg.key_domain
        )
        return source.generate(0.0, cfg.run_seconds - 3.0 * cfg.dist_epoch)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Closed loop: the DES runs as fast as it can.  Large windows
        # make the sorted view, the probe and delay recording the bulk
        # of the wall; no sockets, no observability, no state moves.
        Workload(
            name="sim-wide",
            why=(
                "closed loop, sim, blocknlj, 60 s windows: window sort, "
                "kernel probe and delay recording dominate; window, kernel "
                "and des self time should move throughput_tps"
            ),
            fields=dict(
                num_slaves=4,
                npart=8,
                rate=3000.0,
                window_seconds=60.0,
                run_seconds=90.0,
                warmup_seconds=30.0,
                cost=CHEAP_COST,
            ),
            cpu_bound=True,
        ),
        # The paper's adaptive machinery (fine-tuning, load balancing,
        # degree-of-declustering) under skew, with the observability
        # plane on: the only workload where obs does much of the work,
        # and the high-selectivity output path records a delay per pair.
        Workload(
            name="sim-skew-obs",
            why=(
                "sim, paper costs, b=0.8 skew, adaptive declustering, obs on: "
                "moves, splits, merges, a delay per pair; tuning, move and "
                "obs self time should move delay_p99_s, throughput_tps"
            ),
            fields=dict(
                num_slaves=6,
                adaptive_declustering=True,
                b_skew=0.8,
                rate=4000.0,
                window_seconds=30.0,
                run_seconds=60.0,
                warmup_seconds=20.0,
            ),
            cpu_bound=True,
            obs=ObservabilityConfig(
                metrics=True, trace_memory=True, trace_transport=True
            ),
        ),
        # Open loop: the master ingests on the modeled clock whatever
        # the slaves' progress, so CPU and delay are the headline, not
        # throughput.  The only workload on the wire codec, the socket
        # transport and fork/barrier set-up.
        Workload(
            name="proc-paced",
            why=(
                "open loop, process backend paced at 0.1, 2 s windows "
                "(thread, tcp, indexed left out: defects); wire, transport "
                "and master self time should move cpu_s, delay_p99_s"
            ),
            fields=dict(
                backend="process",
                num_slaves=4,
                npart=60,
                rate=8000.0,
                window_seconds=2.0,
                run_seconds=50.0,
                warmup_seconds=10.0,
                time_scale=0.1,
                cost=CHEAP_COST,
            ),
            cpu_bound=False,
        ),
    )
}

#: Which end-to-end metric each layer's metrics should move, and the
#: workloads where that layer does the most and the least work.
LAYER_MOVES: dict[str, tuple[tuple[str, ...], str, str]] = {
    "workload": (("delay_p99_s",), "proc-paced", "sim-wide"),
    "master": (("cpu_s", "delay_p50_s"), "proc-paced", "sim-wide"),
    "wire": (("cpu_s",), "proc-paced", "sim-wide"),
    "transport": (("cpu_s", "delay_p99_s"), "proc-paced", "sim-wide"),
    "join": (("throughput_tps", "cpu_s"), "sim-wide", "proc-paced"),
    "kernel": (("throughput_tps",), "sim-wide", "proc-paced"),
    "window": (("throughput_tps",), "sim-wide", "proc-paced"),
    "metrics": (("throughput_tps",), "sim-skew-obs", "proc-paced"),
    "tuning": (("throughput_tps", "delay_p99_s"), "sim-skew-obs", "proc-paced"),
    "reorg": (("delay_p99_s", "throughput_tps"), "sim-skew-obs", "sim-wide"),
    "move": (("delay_p99_s", "throughput_tps"), "sim-skew-obs", "sim-wide"),
    "obs": (("throughput_tps",), "sim-skew-obs", "sim-wide"),
    "des": (("throughput_tps",), "sim-wide", "proc-paced"),
    "collector": ((), "proc-paced", "sim-wide"),
}
