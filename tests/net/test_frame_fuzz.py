"""Hostile-network fuzzing for the framing layer and the socket receive path.

Property under test: no malformed input — arbitrary chunking, torn or
truncated frames, corrupted magic/version/length bytes, interleaved
garbage — may ever hang the reader, over-read past a frame boundary, or
surface as anything other than a clean decode, ``WireError`` or
``NodeDown``.  The fake socket ends in EOF, so a hang would also show
up as an infinite busy loop — the iteration bounds below catch that.
"""

from __future__ import annotations

import socket
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import Halt
from repro.errors import WireError
from repro.faults.markers import NodeDown
from repro.net.proc_transport import (
    _EOF,
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameReader,
    SocketTransport,
    write_frame,
)
from repro.net.wire import MAGIC, WIRE_VERSION, decode_message, encode_message

FUZZ = settings(max_examples=50, deadline=None)


class ScriptedSocket:
    """In-memory stream: scripted bytes, scripted read sizes, then EOF.

    Honors the ``recv(n)`` contract (never returns more than *n*
    bytes); the cut list forces arbitrary fragmentation on top of
    whatever chunk size the reader asks for.
    """

    def __init__(self, data: bytes, cuts: list[int] | None = None) -> None:
        self._data = data
        self._cuts = deque(cuts or [])
        self.recv_calls = 0

    def recv(self, n: int) -> bytes:
        self.recv_calls += 1
        if not self._data:
            return b""
        cut = self._cuts.popleft() if self._cuts else len(self._data)
        k = max(1, min(n, cut, len(self._data)))
        out, self._data = self._data[:k], self._data[k:]
        return out

    @property
    def leftover(self) -> int:
        return len(self._data)


def frames_blob(payloads: list[bytes]) -> bytes:
    return b"".join(FRAME_HEADER.pack(len(p)) + p for p in payloads)


class TestFrameReaderFuzz:
    @FUZZ
    @given(
        epochs=st.lists(st.integers(0, 2**31), min_size=1, max_size=6),
        cuts=st.lists(st.integers(1, 7), max_size=64),
    )
    def test_roundtrip_under_arbitrary_chunking(self, epochs, cuts):
        payloads = [encode_message(Halt(e)) for e in epochs]
        reader = FrameReader(ScriptedSocket(frames_blob(payloads), cuts))
        got = [reader.read_frame(None) for _ in range(len(payloads))]
        assert got == payloads
        assert [decode_message(p).epoch for p in got] == epochs
        # No over-read past the last frame: the stream is exactly
        # consumed and the next read is EOF, not a phantom frame.
        assert reader.read_frame(None) is _EOF
        assert reader.read_frame(None) is _EOF

    @FUZZ
    @given(
        epochs=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
        cut_frac=st.floats(0.0, 1.0, exclude_max=True),
        cuts=st.lists(st.integers(1, 5), max_size=32),
    )
    def test_truncated_tail_yields_complete_frames_then_eof(
        self, epochs, cut_frac, cuts
    ):
        # Truncate the byte stream anywhere inside the *last* frame
        # (possibly mid-header): every complete frame is delivered
        # intact, the torn tail surfaces as EOF, never as a partial
        # payload and never as a hang.
        payloads = [encode_message(Halt(e)) for e in epochs]
        blob = frames_blob(payloads)
        last_start = len(blob) - FRAME_HEADER.size - len(payloads[-1])
        cut_at = last_start + int(
            cut_frac * (len(blob) - last_start - 1)
        )
        reader = FrameReader(ScriptedSocket(blob[:cut_at], cuts))
        got = [reader.read_frame(None) for _ in range(len(payloads) - 1)]
        assert got == payloads[:-1]
        assert reader.read_frame(None) is _EOF

    @FUZZ
    @given(length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
    def test_absurd_length_header_raises_wireerror(self, length):
        reader = FrameReader(ScriptedSocket(FRAME_HEADER.pack(length)))
        with pytest.raises(WireError, match="sanity"):
            reader.read_frame(None)

    @FUZZ
    @given(
        epoch=st.integers(0, 2**31),
        garbage=st.binary(min_size=1, max_size=48),
        cuts=st.lists(st.integers(1, 5), max_size=32),
    )
    def test_interleaved_garbage_never_hangs_or_leaks_frames(
        self, epoch, garbage, cuts
    ):
        # One valid frame followed by raw garbage: the frame arrives
        # intact, then every further read terminates in bounded steps
        # with EOF or WireError — the garbage is interpreted as frame
        # headers, never delivered as a payload it can't be.
        payload = encode_message(Halt(epoch))
        reader = FrameReader(
            ScriptedSocket(frames_blob([payload]) + garbage, cuts)
        )
        assert reader.read_frame(None) == payload
        for _ in range(len(garbage) + 2):
            try:
                frame = reader.read_frame(None)
            except WireError:
                return  # garbage length header tripped the sanity bound
            if frame is _EOF:
                return  # torn pseudo-frame: stream ends cleanly
            # A garbage run can only parse as a frame if its length
            # header happens to cover bytes that all arrived — in that
            # case the bytes come from the garbage, not a real message.
            assert frame != payload
        raise AssertionError("reader failed to terminate on garbage")


class TestTcpReceivePathFuzz:
    def _pair(self):
        sa, sb = socket.socketpair()
        transport = SocketTransport(2, {0: sb}, 64)
        return sa, transport

    @FUZZ
    @given(junk=st.binary(min_size=0, max_size=64))
    def test_corrupted_magic_raises_wireerror(self, junk):
        sa, transport = self._pair()
        try:
            write_frame(sa, b"XX" + junk)  # magic is never b"XX"
            with pytest.raises(WireError):
                transport.endpoint(2).recv(0).run()
        finally:
            sa.close()
            transport.close()

    @FUZZ
    @given(version=st.integers(0, 255).filter(lambda v: v != WIRE_VERSION))
    def test_corrupted_version_raises_wireerror(self, version):
        sa, transport = self._pair()
        try:
            good = encode_message(Halt(3))
            assert good[:2] == MAGIC
            write_frame(sa, good[:2] + bytes([version]) + good[3:])
            with pytest.raises(WireError, match="version"):
                transport.endpoint(2).recv(0).run()
        finally:
            sa.close()
            transport.close()

    @FUZZ
    @given(cut_frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_torn_frame_resolves_to_node_down(self, cut_frac):
        # Peer dies mid-frame on a real socket: the endpoint must
        # resolve to NodeDown, never hand the codec a partial payload.
        sa, transport = self._pair()
        try:
            payload = encode_message(Halt(9))
            frame = FRAME_HEADER.pack(len(payload)) + payload
            cut_at = 1 + int(cut_frac * (len(frame) - 2))
            sa.sendall(frame[:cut_at])
            sa.close()
            assert transport.endpoint(2).recv(0).run() == NodeDown(0)
        finally:
            transport.close()
