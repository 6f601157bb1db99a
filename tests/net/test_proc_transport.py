"""The socket transport over inherited socketpairs (process backend).

The cases live in :mod:`tests.net.channel_suite`, shared with the TCP
connector; this module binds them to ``socket.socketpair()`` and adds
the process backend's end-to-end view of the per-pair tallies.
"""

from __future__ import annotations

import dataclasses

from repro.config import ObservabilityConfig, SystemConfig
from repro.core.system import JoinSystem
from tests.net.channel_suite import (
    Drain,
    FailureSemantics,
    Framing,
    PairCounters,
    SocketpairLink,
    Stats,
)


class TestFraming(SocketpairLink, Framing):
    pass


class TestFailureSemantics(SocketpairLink, FailureSemantics):
    pass


class TestDrain(SocketpairLink, Drain):
    pass


class TestStats(SocketpairLink, Stats):
    pass


class TestPairCounters(SocketpairLink, PairCounters):
    pass


def test_process_run_reports_net_counters_per_node():
    """Under ``--metrics`` every process-backend node exposes its
    per-pair ``net.*`` tallies in ``RunResult.node_metrics``."""
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.01)
        .with_(
            num_slaves=2,
            npart=8,
            rate=150.0,
            run_seconds=8.0,
            warmup_seconds=2.0,
            window_seconds=3.0,
            reorg_epoch=4.0,
            backend="process",
            time_scale=0.02,
        )
    )
    cfg = dataclasses.replace(cfg, obs=ObservabilityConfig(metrics=True))
    result = JoinSystem(cfg).run()
    master = result.node_metrics[0]
    slave = result.node_metrics[2]
    # The master ships every epoch to each slave; each slave answers.
    assert master["net.tx_frames.to_n2"]["value"] > 0
    assert master["net.rx_frames.from_n2"]["value"] > 0
    assert slave["net.rx_frames.from_n0"]["value"] == (
        master["net.tx_frames.to_n2"]["value"]
    )
