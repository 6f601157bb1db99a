"""The socket transport's channel contract, written once for both
connectors.

:class:`~repro.net.proc_transport.SocketTransport` carries the process
backend (inherited socketpairs) and the tcp backend (handshaken TCP
connections).  The classes here hold the cases; each connector's test
module binds them to its link by mixing in :class:`SocketpairLink` or
:class:`TcpLink`:

* ``tests/net/test_proc_transport.py`` runs them over socketpairs;
* ``tests/net/test_tcp_transport.py`` runs them over loopback TCP.

Covers what :mod:`repro.mp.comm` relies on: framing across partial
reads and large frames, peer EOF mapping to ``NodeDown``, recv
timeouts, drain/fence semantics matching ``SimTransport``, modeled
wire bytes and the per-pair tallies feeding the metrics registry.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.protocol import Halt, MoveAck, Shipment
from repro.data.tuples import TupleBatch
from repro.errors import WireError
from repro.faults.markers import NodeDown, RecvTimeout
from repro.net.proc_transport import (
    FRAME_HEADER,
    FrameReader,
    SocketTransport,
)
from repro.net.tcp_transport import (
    KIND_PEER,
    connect_with_retry,
    read_hello,
    send_hello,
)
from repro.net.wire import encode_message
from repro.obs.metrics import MetricsRegistry
from repro.simul.rng import RngRegistry


def tcp_link() -> tuple[socket.socket, socket.socket]:
    """Both ends of one handshaken loopback TCP connection, built the
    way the tcp backend's mesh is: node 0 connects, node 2 accepts."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted: list[socket.socket] = []

    def accept() -> None:
        conn, _ = listener.accept()
        read_hello(conn, 5.0)
        send_hello(conn, KIND_PEER, 2)
        accepted.append(conn)

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    sa = connect_with_retry(
        listener.getsockname(),
        KIND_PEER,
        0,
        RngRegistry(0).get("tcp.backoff.0->2"),
        expect_node=2,
    )
    acceptor.join(timeout=10.0)
    listener.close()
    return sa, accepted[0]


class SocketpairLink:
    """Connector: one inherited ``socket.socketpair()`` (process)."""

    @staticmethod
    def link() -> tuple[socket.socket, socket.socket]:
        return socket.socketpair()

    def make_pair(self, a=0, b=2, tuple_bytes=64, time_scale=1.0):
        sa, sb = self.link()
        ta = SocketTransport(a, {b: sa}, tuple_bytes)
        tb = SocketTransport(b, {a: sb}, tuple_bytes, time_scale=time_scale)
        return ta, tb


class TcpLink(SocketpairLink):
    """Connector: one handshaken loopback TCP connection (tcp)."""

    @staticmethod
    def link() -> tuple[socket.socket, socket.socket]:
        return tcp_link()


class Framing:
    def test_frame_split_across_many_partial_reads(self):
        sa, sb = self.link()
        payload = encode_message(Halt(7))
        frame = FRAME_HEADER.pack(len(payload)) + payload

        def dribble():
            # One byte at a time: the reader must reassemble across
            # arbitrarily fragmented reads.
            for i in range(len(frame)):
                sa.sendall(frame[i : i + 1])
                time.sleep(0.0005)

        writer = threading.Thread(target=dribble)
        writer.start()
        reader = FrameReader(sb, chunk_bytes=3)
        got = reader.read_frame(None)
        writer.join()
        assert got == payload
        sa.close(), sb.close()

    def test_several_frames_in_one_write(self):
        sa, sb = self.link()
        payloads = [encode_message(Halt(k)) for k in range(5)]
        blob = b"".join(
            FRAME_HEADER.pack(len(p)) + p for p in payloads
        )
        sa.sendall(blob)
        reader = FrameReader(sb)
        assert [reader.read_frame(None) for _ in range(5)] == payloads
        sa.close(), sb.close()

    def test_frame_larger_than_64kib(self):
        ta, tb = self.make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        n = 3000  # 3000 tuples * 25 B/tuple of columns >> 64 KiB payload
        batch = TupleBatch.build(
            np.linspace(0.0, 30.0, n), np.arange(n), stream=np.arange(n) % 2
        )
        shipment = Shipment(4, 0.0, 2.0, batch)
        payload = encode_message(shipment)
        assert len(payload) > 64 * 1024

        got = {}

        def receive():
            got["msg"] = eb.recv(0).run()

        rx = threading.Thread(target=receive)
        rx.start()
        ea.send(2, shipment).run()
        rx.join(timeout=30.0)
        assert not rx.is_alive()
        msg = got["msg"]
        assert isinstance(msg, Shipment)
        assert np.array_equal(msg.batch.key, batch.key)
        ta.close(), tb.close()

    def test_torn_frame_is_eof_not_garbage(self):
        # Peer dies mid-frame: the partial payload must never reach the
        # codec; the receiver observes NodeDown.
        sa, sb = self.link()
        tb = SocketTransport(2, {0: sb}, 64)
        payload = encode_message(Halt(1))
        sa.sendall(FRAME_HEADER.pack(len(payload)) + payload[: len(payload) // 2])
        sa.close()
        assert tb.endpoint(2).recv(0).run() == NodeDown(0)
        tb.close()

    def test_absurd_length_header_rejected(self):
        sa, sb = self.link()
        sa.sendall(struct.pack("!I", 1 << 31))
        reader = FrameReader(sb)
        with pytest.raises(WireError, match="sanity"):
            reader.read_frame(None)
        sa.close(), sb.close()


class FailureSemantics:
    def test_peer_eof_maps_to_node_down(self):
        ta, tb = self.make_pair()
        ta.close()
        assert tb.endpoint(2).recv(0).run() == NodeDown(0)
        # And again: the marker is sticky, like the sim transport's
        # dead-node fast path.
        assert tb.endpoint(2).recv(0).run() == NodeDown(0)
        tb.close()

    def test_buffered_frames_delivered_before_eof(self):
        # A dying peer's already-sent frames still arrive, then the
        # stream ends in NodeDown.
        ta, tb = self.make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        ea.send(2, MoveAck(3, "supplier")).run()
        ta.close()
        assert eb.recv(0).run() == MoveAck(3, "supplier")
        assert eb.recv(0).run() == NodeDown(0)
        tb.close()

    def test_send_to_dead_peer_resolves_to_node_down(self):
        ta, tb = self.make_pair()
        tb.close()
        ea = ta.endpoint(0)
        # The first send may land in the kernel buffer (None); once the
        # broken pipe is visible every send resolves to NodeDown — and
        # none of them raises (buffered-write model of a dead peer).
        results = [ea.send(2, Halt(k)).run() for k in range(8)]
        assert NodeDown(2) in results
        assert set(results) <= {None, NodeDown(2)}
        ta.close()

    def test_recv_timeout_marker(self):
        ta, tb = self.make_pair()
        t0 = time.monotonic()
        got = tb.endpoint(2).recv(0, timeout=0.05).run()
        assert got == RecvTimeout(0.05)
        assert time.monotonic() - t0 < 5.0
        ta.close(), tb.close()

    def test_timeout_is_scaled_to_wall_clock(self):
        # 20 modeled seconds at time_scale=0.005 -> 100 ms wall.
        ta, tb = self.make_pair(time_scale=0.005)
        t0 = time.monotonic()
        got = tb.endpoint(2).recv(0, timeout=20.0).run()
        wall = time.monotonic() - t0
        assert got == RecvTimeout(20.0)
        assert 0.05 <= wall < 2.0
        ta.close(), tb.close()


class Drain:
    def test_drained_pair_discards_and_never_blocks_sender(self):
        ta, tb = self.make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        eb.drain(0)
        # Push well past a socket buffer: without the discard reader
        # the sender would wedge exactly like an unmatched rendezvous.
        n = 2000
        batch = TupleBatch.build(np.linspace(0, 20, n), np.arange(n))
        done = threading.Event()

        def flood():
            for k in range(64):
                ea.send(2, Shipment(k, 0.0, 2.0, batch)).run()
            done.set()

        tx = threading.Thread(target=flood, daemon=True)
        tx.start()
        assert done.wait(timeout=30.0), "fenced sender blocked"
        ta.close(), tb.close()

    def test_recv_after_drain_is_node_down(self):
        ta, tb = self.make_pair()
        eb = tb.endpoint(2)
        eb.drain(0)
        assert eb.recv(0).run() == NodeDown(0)
        ta.close(), tb.close()

    def test_drain_is_idempotent(self):
        ta, tb = self.make_pair()
        eb = tb.endpoint(2)
        eb.drain(0)
        eb.drain(0)
        assert len(tb._drain_threads) == 1
        ta.close(), tb.close()


class Stats:
    class Recorder:
        def __init__(self):
            self.comm = []
            self.idle = []

        def record_comm(self, t0, t1, nbytes, sent):
            self.comm.append((t0, t1, nbytes, sent))

        def record_idle(self, t0, t1):
            self.idle.append((t0, t1))

    def test_modeled_wire_bytes_recorded(self):
        ta, tb = self.make_pair()
        tx_stats, rx_stats = self.Recorder(), self.Recorder()
        ea, eb = ta.endpoint(0, tx_stats), tb.endpoint(2, rx_stats)
        batch = TupleBatch.build([1.0, 2.0], [5, 6])
        ea.send(2, Shipment(0, 0.0, 2.0, batch)).run()
        msg = eb.recv(0).run()
        assert isinstance(msg, Shipment)
        # Modeled size (64 B control + 2 * 64 B tuples), not the
        # serialized byte count: metrics stay comparable across backends.
        expected = Shipment(0, 0.0, 2.0, batch).wire_bytes(64)
        assert tx_stats.comm[0][2] == expected
        assert rx_stats.comm[0][2] == expected
        assert rx_stats.idle, "receiver wait must be recorded as idle"
        ta.close(), tb.close()

    def test_foreign_endpoint_refuses(self):
        ta, tb = self.make_pair()
        foreign = ta.endpoint(2)
        with pytest.raises(RuntimeError, match="another process"):
            foreign.send(0, Halt(0))
        with pytest.raises(RuntimeError, match="another process"):
            foreign.recv(0)
        ta.close(), tb.close()


class PairCounters:
    def test_tallies_track_frames_and_wire_bytes(self):
        ta, tb = self.make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        payloads = [encode_message(Halt(k)) for k in range(3)]
        for k in range(3):
            ea.send(2, Halt(k)).run()
        for _ in range(3):
            eb.recv(0).run()
        expected = sum(FRAME_HEADER.size + len(p) for p in payloads)
        assert ta.pair_stats()[2] == {
            "tx_frames": 3, "tx_bytes": expected,
            "rx_frames": 0, "rx_bytes": 0,
        }
        assert tb.pair_stats()[0] == {
            "tx_frames": 0, "tx_bytes": 0,
            "rx_frames": 3, "rx_bytes": expected,
        }
        ta.close(), tb.close()

    def test_registry_counters_mirror_tallies(self):
        ta, tb = self.make_pair()
        registry = MetricsRegistry(2)
        # Attach after traffic already flowed: pre-attach counts must
        # be replayed, post-attach traffic increments live.
        ta.endpoint(0).send(2, Halt(0)).run()
        tb.endpoint(2).recv(0).run()
        tb.attach_registry(registry)
        ta.endpoint(0).send(2, Halt(1)).run()
        tb.endpoint(2).recv(0).run()
        snapshot = registry.snapshot()
        assert snapshot["net.rx_frames.from_n0"]["value"] == 2
        assert (
            snapshot["net.rx_bytes.from_n0"]["value"]
            == tb.pair_stats()[0]["rx_bytes"]
        )
        ta.close(), tb.close()
