"""The socket data plane shared by the process and tcp backends.

Each unordered node pair shares one full-duplex stream socket.  Two
connectors build that mesh and hand the sockets to the one
:class:`SocketTransport`:

* the process backend creates a ``socket.socketpair()`` per pair
  before forking, and each child keeps its own ends (the parent closes
  both after forking, so peer death is observable as EOF);
* the tcp backend connects the pairs over TCP with the versioned
  handshake of :mod:`repro.net.tcp_transport`.

Messages travel as length-prefixed frames::

    length  4 bytes  big-endian payload size
    payload         one :mod:`repro.net.wire` encoded message

Semantics, mirrored from :class:`~repro.net.sim_transport.SimTransport`
so :mod:`repro.mp.comm` collectives behave identically:

* **FIFO per pair** — kernel stream sockets preserve order; the fixed
  communication schedule needs nothing stronger.
* **peer EOF → NodeDown** — when the remote process exits (cleanly or
  killed), buffered frames are still delivered, then ``recv`` resolves
  to :class:`~repro.faults.markers.NodeDown`, the same marker the DES
  transport synthesizes for a reaped node.  The master's
  failure-detection path therefore works unchanged.
* **sends to a dead peer complete** — a write hitting a closed socket
  (``BrokenPipeError``/``ECONNRESET``) is the buffered-write model of
  a fail-stop peer: the message is discarded and the send never
  raises.  The thunk resolves to ``NodeDown`` so tests and diagnostics
  can see the broken pipe; protocol code ignores send values.
* **recv timeout → RecvTimeout** — an armed detection timeout that
  elapses with no frame resolves to
  :class:`~repro.faults.markers.RecvTimeout` (timeout is in *modeled*
  seconds; the wall wait is scaled by ``time_scale``).
* **drain fences a pair** — after ``drain(src)``, frames from *src*
  are consumed and discarded by a background reader so a live-but-late
  peer can never wedge on a full socket buffer, and local receives
  from the fenced peer resolve to ``NodeDown`` (the master never
  legitimately receives from a slave it fenced).

Every channel tallies frames and wire bytes (header + payload) in both
directions; :meth:`SocketTransport.attach_registry` binds the tallies
to the metrics registry as ``net.tx_bytes.to_n*`` /
``net.rx_frames.from_n*`` series.

Unlike the rendezvous transports, sends are *buffered*: ``send``
completes once the frame is written to the socket, which blocks only
when the kernel buffer fills (natural backpressure).  Statistics
therefore measure real wall time spent writing/reading, not modeled
rendezvous spans — see the backend matrix in the README.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
import typing as t

from repro.errors import WireError
from repro.faults.markers import NodeDown, RecvTimeout
from repro.net.sim_transport import CommStats
from repro.net.wire import decode_message, encode_message
from repro.obs.events import TransportEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.thread import Thunk

#: Frame header: big-endian payload length.
FRAME_HEADER = struct.Struct("!I")
#: Refuse absurd frames (a corrupted header would otherwise make the
#: reader try to allocate gigabytes before failing).
MAX_FRAME_BYTES = 1 << 30

#: Sentinel distinguishing "timed out" from "EOF" inside the reader.
_TIMED_OUT = object()
_EOF = object()


def write_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame (blocking until buffered)."""
    sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)


class FrameReader:
    """Incremental frame reassembly over one stream socket.

    Keeps a byte buffer so a frame split across arbitrarily many
    ``recv`` calls (partial reads) — or several frames arriving in one
    ``recv`` — reassembles correctly.  Exactly one thread reads any
    given channel, so the buffer needs no lock.
    """

    def __init__(self, sock: socket.socket, chunk_bytes: int = 65536) -> None:
        self.sock = sock
        self.chunk_bytes = chunk_bytes
        self._buf = bytearray()
        self._eof = False

    def _fill(self, deadline: float | None) -> bool:
        """Read one chunk into the buffer.

        Returns False on timeout; sets ``_eof`` on connection end.
        """
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            ready, _, _ = select.select([self.sock], [], [], remaining)
            if not ready:
                return False
        try:
            chunk = self.sock.recv(self.chunk_bytes)
        except (ConnectionResetError, OSError):
            chunk = b""
        if not chunk:
            self._eof = True
        else:
            self._buf += chunk
        return True

    def read_frame(self, timeout: float | None = None) -> t.Any:
        """One frame's payload bytes, ``_EOF``, or ``_TIMED_OUT``.

        *timeout* is in wall seconds and bounds the wait for the
        *first* byte of the frame; once a frame has started arriving it
        is read to completion (the peer is evidently alive).
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while len(self._buf) < FRAME_HEADER.size:
            if self._eof:
                return _EOF
            started = len(self._buf) > 0
            if not self._fill(None if started else deadline):
                return _TIMED_OUT
        (length,) = FRAME_HEADER.unpack(bytes(self._buf[: FRAME_HEADER.size]))
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds sanity bound")
        total = FRAME_HEADER.size + length
        while len(self._buf) < total:
            if self._eof:
                # A torn frame: the peer died mid-write.  Surface it as
                # EOF — the partial payload must never reach the codec.
                return _EOF
            self._fill(None)
        payload = bytes(self._buf[FRAME_HEADER.size : total])
        del self._buf[:total]
        return payload




class _Channel:
    """This node's half of one peer socket, with its traffic tallies."""

    __slots__ = (
        "peer", "sock", "reader", "send_lock", "draining",
        "send_seq", "recv_seq",
        "tx_frames", "tx_bytes", "rx_frames", "rx_bytes", "counters",
    )

    def __init__(self, peer: int, sock: socket.socket) -> None:
        self.peer = peer
        self.sock = sock
        self.reader = FrameReader(sock)
        self.send_lock = threading.Lock()
        self.draining = False
        # Per-directed-stream message counters for transport tracing:
        # the socket is FIFO, so the n-th send pairs the n-th receive
        # on the peer.  The send side is guarded by ``send_lock``;
        # exactly one thread reads a channel, so the recv side is not.
        self.send_seq = 0
        self.recv_seq = 0
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        #: Registry counters ``(tx_frames, tx_bytes, rx_frames,
        #: rx_bytes)`` once :meth:`bind` ran, else ``None``.
        self.counters: tuple[t.Any, ...] | None = None

    def bind(self, registry: t.Any) -> None:
        peer = self.peer
        self.counters = (
            registry.counter(
                f"net.tx_frames.to_n{peer}", "wire frames written to this peer"
            ),
            registry.counter(
                f"net.tx_bytes.to_n{peer}",
                "wire bytes (header + payload) written to this peer",
            ),
            registry.counter(
                f"net.rx_frames.from_n{peer}", "wire frames read from this peer"
            ),
            registry.counter(
                f"net.rx_bytes.from_n{peer}",
                "wire bytes (header + payload) read from this peer",
            ),
        )
        # Replay anything tallied before the registry was attached
        # (mesh set-up happens before build_cluster creates it).
        for counter, value in zip(
            self.counters,
            (self.tx_frames, self.tx_bytes, self.rx_frames, self.rx_bytes),
        ):
            if value:
                counter.inc(value)

    def on_send(self, wire_bytes: int) -> None:
        self.tx_frames += 1
        self.tx_bytes += wire_bytes
        if self.counters is not None:
            self.counters[0].inc()
            self.counters[1].inc(wire_bytes)

    def on_recv(self, wire_bytes: int) -> None:
        self.rx_frames += 1
        self.rx_bytes += wire_bytes
        if self.counters is not None:
            self.counters[2].inc()
            self.counters[3].inc(wire_bytes)


class _ForeignEndpoint:
    """Endpoint stub for a node that lives in another OS process.

    ``build_cluster`` wires every node of the cluster, but a socket
    backend node only *runs* its own generators — the other nodes'
    endpoints must never be exercised here.
    """

    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def _refuse(self, *_a: t.Any, **_k: t.Any) -> t.NoReturn:
        raise RuntimeError(
            f"node {self.node_id} lives in another process; its endpoint "
            "cannot be used here"
        )

    send = _refuse
    recv = _refuse
    drain = _refuse


class SocketTransport:
    """One process's view of the cluster interconnect.

    ``peers`` maps peer node id -> this process's end of the shared
    stream socket, however the connector built it.  ``endpoint`` hands
    out the real endpoint for the local node and refusing stubs for
    every other node.
    """

    def __init__(
        self,
        node_id: int,
        peers: t.Mapping[int, socket.socket],
        tuple_bytes: int,
        time_scale: float = 1.0,
        origin: float | None = None,
        tracer: Tracer = NULL_TRACER,
        now_fn: t.Callable[[], float] | None = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.node_id = node_id
        self.tuple_bytes = tuple_bytes
        self.time_scale = time_scale
        self._origin = time.monotonic() if origin is None else origin
        self.tracer = tracer
        self._now_fn = now_fn
        self._channels = {
            peer: _Channel(peer, sock) for peer, sock in peers.items()
        }
        self._drain_threads: list[threading.Thread] = []

    # -- clock ---------------------------------------------------------------
    def _now(self) -> float:
        if self._now_fn is not None:
            return self._now_fn()
        return (time.monotonic() - self._origin) / self.time_scale

    def rebase(self, origin: float) -> None:
        """Move modeled t=0 to the given ``time.monotonic()`` value (set
        by the launcher's start barrier, shared by all nodes)."""
        self._origin = origin

    # -- wiring --------------------------------------------------------------
    def endpoint(
        self, node_id: int, stats: CommStats | None = None
    ) -> "SocketEndpoint | _ForeignEndpoint":
        if node_id != self.node_id:
            return _ForeignEndpoint(node_id)
        return SocketEndpoint(self, stats)

    def channel(self, peer: int) -> _Channel:
        chan = self._channels.get(peer)
        if chan is None:
            raise RuntimeError(
                f"node {self.node_id} has no channel to peer {peer}"
            )
        return chan

    def close(self) -> None:
        """Close every socket (end of run; peers observe EOF)."""
        for chan in self._channels.values():
            try:
                chan.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            chan.sock.close()

    def _message_bytes(self, message: t.Any) -> int:
        # Stats record the *modeled* 64 B/tuple wire size, like the sim
        # and thread transports, so per-byte metrics stay comparable.
        wire = getattr(message, "wire_bytes", None)
        return 64 if wire is None else int(wire(self.tuple_bytes))

    # -- per-pair tallies ----------------------------------------------------
    def attach_registry(self, registry: t.Any) -> None:
        """Bind every pair's tallies to a metrics registry."""
        for peer in sorted(self._channels):
            self._channels[peer].bind(registry)

    def pair_stats(self) -> dict[int, dict[str, int]]:
        """Raw per-peer counters (always maintained, registry or not)."""
        return {
            peer: {
                "tx_frames": chan.tx_frames,
                "tx_bytes": chan.tx_bytes,
                "rx_frames": chan.rx_frames,
                "rx_bytes": chan.rx_bytes,
            }
            for peer, chan in sorted(self._channels.items())
        }

    # -- fencing -------------------------------------------------------------
    def drain_peer(self, peer: int) -> None:
        """Fence *peer*: discard its frames in the background forever.

        Idempotent.  Keeps a live-but-fenced peer from blocking on a
        full socket buffer (the socket analogue of
        :meth:`SimTransport.drain_pair`'s silently-completing sends).
        """
        chan = self.channel(peer)
        if chan.draining:
            return
        chan.draining = True

        def discard() -> None:
            while True:
                frame = chan.reader.read_frame(None)
                if frame is _EOF:
                    return

        thread = threading.Thread(
            target=discard,
            name=f"drain:{peer}->{self.node_id}",
            daemon=True,
        )
        self._drain_threads.append(thread)
        thread.start()


class SocketEndpoint:
    """The local node's handle on the socket transport."""

    __slots__ = ("transport", "node_id", "stats")

    def __init__(
        self, transport: SocketTransport, stats: CommStats | None
    ) -> None:
        self.transport = transport
        self.node_id = transport.node_id
        self.stats = stats

    def _trace(
        self, t0: float, t1: float, peer: int, message: t.Any,
        nbytes: int, phase: str, seq: int,
    ) -> None:
        tracer = self.transport.tracer
        if not tracer.enabled:
            return
        tracer.emit(
            TransportEvent(
                t=t0 if phase == "send" else t1,
                node=self.node_id,
                dst=peer,
                msg=type(message).__name__,
                nbytes=nbytes,
                duration=t1 - t0,
                phase=phase,
                xfer_seq=seq,
            )
        )

    def send(self, dst: int, message: t.Any) -> Thunk:
        transport = self.transport
        chan = transport.channel(dst)

        def fn() -> NodeDown | None:
            payload = encode_message(message)
            t0 = transport._now()
            dead = False
            with chan.send_lock:
                seq = chan.send_seq
                chan.send_seq += 1
                try:
                    write_frame(chan.sock, payload)
                except OSError:
                    # Fail-stop peer: the write lands in a void, exactly
                    # like a buffered write towards a dead host.
                    dead = True
                else:
                    chan.on_send(FRAME_HEADER.size + len(payload))
            t1 = transport._now()
            nbytes = transport._message_bytes(message)
            if self.stats is not None:
                self.stats.record_comm(t0, t1, nbytes, sent=True)
            self._trace(t0, t1, dst, message, nbytes, "send", seq)
            return NodeDown(dst) if dead else None

        return Thunk(fn)

    def recv(self, src: int, timeout: float | None = None) -> Thunk:
        transport = self.transport
        chan = transport.channel(src)

        def fn() -> t.Any:
            t0 = transport._now()
            if chan.draining:
                # The pair is fenced: this node gave up on the peer.
                return NodeDown(src)
            wall = (
                None
                if timeout is None
                else max(0.0, timeout) * transport.time_scale
            )
            frame = chan.reader.read_frame(wall)
            t1 = transport._now()
            if self.stats is not None:
                self.stats.record_idle(t0, t1)
            if frame is _TIMED_OUT:
                return RecvTimeout(timeout or 0.0)
            if frame is _EOF:
                return NodeDown(src)
            chan.on_recv(FRAME_HEADER.size + len(frame))
            message = decode_message(frame)
            seq = chan.recv_seq
            chan.recv_seq += 1
            nbytes = transport._message_bytes(message)
            if self.stats is not None:
                self.stats.record_comm(t1, t1, nbytes, sent=False)
            self._trace(t0, t1, src, message, nbytes, "recv", seq)
            return message

        return Thunk(fn)

    def drain(self, src: int) -> None:
        """Fence the channel from *src* (see :meth:`SocketTransport.drain_peer`)."""
        self.transport.drain_peer(src)
