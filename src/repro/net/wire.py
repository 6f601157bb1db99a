"""Versioned wire codec for the process backend.

The process backend runs master, slaves and collector as separate OS
processes, so every message of :mod:`repro.core.protocol` must cross a
real socket.  This module is the (de)serializer: a small, explicit,
versioned binary format — **not** pickle — so that

* a truncated or corrupted frame raises :class:`~repro.errors.WireError`
  instead of silently producing garbage (or executing attacker-chosen
  code, as unpickling a socket would);
* the format is independent of Python object layout: renaming a field
  or reordering a dataclass is caught by the version byte and the
  round-trip property tests, not by a crash three epochs later.

Layout.  Every encoded message starts with a fixed header::

    magic   2 bytes   b"SJ"
    version 1 byte    WIRE_VERSION
    tag     1 byte    message type (see _TAGS)

followed by the type's body.  Scalars use network byte order
(``struct`` format ``!``); strings and numpy arrays are length-prefixed.
Array columns travel as raw little-endian bytes of their canonical
dtype (the :mod:`repro.data.tuples` column dtypes are fixed by
construction), so encoding is a ``tobytes``/``frombuffer`` pair — no
per-element work.

The codec is deliberately closed-world: only the message types of the
fixed communication schedule (plus their payload structures
:class:`~repro.data.tuples.TupleBatch`,
:class:`~repro.obs.metrics.Histogram`,
:class:`~repro.core.partition_group.PartitionGroupState`) can travel.
Encoding any other object raises :class:`~repro.errors.WireError`.
"""

from __future__ import annotations

import struct
import typing as t

import numpy as np

from repro.core.partition_group import GroupState, PartitionGroupState
from repro.core.protocol import (
    Activate,
    Checkpoint,
    Halt,
    LoadReport,
    MoveAck,
    MoveDirective,
    Rejoin,
    ReorgOrder,
    Replicate,
    ResultReport,
    Restore,
    Shipment,
    SlaveSync,
    StandbyPlan,
    StandbySync,
    StateTransfer,
    TakeOver,
)
from repro.core.subgroups import SlotSchedule
from repro.data.tuples import (
    KEY_DTYPE,
    SEQ_DTYPE,
    STREAM_DTYPE,
    TS_DTYPE,
    TupleBatch,
)
from repro.errors import WireError
from repro.obs.metrics import Histogram

__all__ = ["WIRE_VERSION", "MAGIC", "encode_message", "decode_message"]

#: Bump on any incompatible change to the byte layout below.
#: v2: ReorgOrder grew ``checkpoint_pids``, MoveAck grew optional
#: ``pairs``, and the replication messages (Replicate / Checkpoint /
#: Restore) joined the tag table.
#: v3: master-failover messages (StandbySync / StandbyPlan / TakeOver /
#: Rejoin) joined the tag table.
WIRE_VERSION = 3
MAGIC = b"SJ"

_U8 = struct.Struct("!B")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")

#: Dtypes an encoded array may carry, keyed by a one-byte code.  All
#: arrays travel little-endian regardless of host order.
_DTYPES: dict[int, np.dtype] = {
    0: np.dtype("<f8"),
    1: np.dtype("<i8"),
    2: np.dtype("<u1"),
}
_DTYPE_CODES = {dt: code for code, dt in _DTYPES.items()}


class _Writer:
    """Append-only byte buffer with scalar helpers."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, v: int) -> None:
        self.buf += _U8.pack(v)

    def i64(self, v: int) -> None:
        self.buf += _I64.pack(int(v))

    def f64(self, v: float) -> None:
        self.buf += _F64.pack(float(v))

    def u32(self, v: int) -> None:
        self.buf += _U32.pack(int(v))

    def str_(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.buf += raw

    def array(self, arr: np.ndarray) -> None:
        canonical = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        code = _DTYPE_CODES.get(canonical.dtype)
        if code is None:
            raise WireError(f"array dtype not on the wire menu: {arr.dtype}")
        self.u8(code)
        self.u32(len(canonical))
        self.buf += canonical.tobytes()


class _Reader:
    """Bounds-checked cursor over one frame's bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"frame has {len(self.data)}"
            )
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def u8(self) -> int:
        return int(_U8.unpack(self.take(1))[0])

    def i64(self) -> int:
        return int(_I64.unpack(self.take(8))[0])

    def f64(self) -> float:
        return float(_F64.unpack(self.take(8))[0])

    def u32(self) -> int:
        return int(_U32.unpack(self.take(4))[0])

    def str_(self) -> str:
        n = self.u32()
        return self.take(n).decode("utf-8")

    def array(self) -> np.ndarray:
        code = self.u8()
        dtype = _DTYPES.get(code)
        if dtype is None:
            raise WireError(f"unknown array dtype code: {code}")
        n = self.u32()
        raw = self.take(n * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireError(
                f"{len(self.data) - self.pos} trailing bytes after message body"
            )


# -- payload structures ------------------------------------------------------


def _put_batch(w: _Writer, batch: TupleBatch) -> None:
    w.array(batch.ts)
    w.array(batch.key)
    w.array(batch.seq)
    w.array(batch.stream)


def _get_batch(r: _Reader) -> TupleBatch:
    ts = r.array()
    key = r.array()
    seq = r.array()
    stream = r.array()
    if not len(ts) == len(key) == len(seq) == len(stream):
        raise WireError("tuple batch columns of unequal length")
    return TupleBatch(
        ts.astype(TS_DTYPE, copy=False),
        key.astype(KEY_DTYPE, copy=False),
        seq.astype(SEQ_DTYPE, copy=False),
        stream.astype(STREAM_DTYPE, copy=False),
    )


def _put_delay_stats(w: _Writer, stats: Histogram) -> None:
    w.i64(stats.count)
    w.f64(stats.total)
    w.f64(stats.minimum)
    w.f64(stats.maximum)
    w.array(stats.histogram)


def _get_delay_stats(r: _Reader) -> Histogram:
    stats = Histogram()
    stats.count = r.i64()
    stats.total = r.f64()
    stats.minimum = r.f64()
    stats.maximum = r.f64()
    histogram = r.array().astype(np.int64, copy=False)
    if stats.count < 0:
        raise WireError(f"delay stats count is negative: {stats.count}")
    if len(histogram) != len(stats.histogram):
        raise WireError(
            f"delay histogram has {len(histogram)} bins, "
            f"expected {len(stats.histogram)}"
        )
    if (histogram < 0).any():
        raise WireError("delay histogram has a negative bin")
    binned = int(histogram.sum())
    if binned != stats.count:
        raise WireError(
            f"delay histogram bins sum to {binned}, but count is {stats.count}"
        )
    stats.histogram = histogram
    return stats


def _put_schedule(w: _Writer, schedule: SlotSchedule | None) -> None:
    if schedule is None:
        w.u8(0)
        return
    w.u8(1)
    w.i64(schedule.group_index)
    w.i64(schedule.n_groups)
    w.f64(schedule.dist_epoch)


def _get_schedule(r: _Reader) -> SlotSchedule | None:
    if not r.u8():
        return None
    return SlotSchedule(r.i64(), r.i64(), r.f64())


def _put_moves(w: _Writer, moves: t.Sequence[MoveDirective]) -> None:
    w.u32(len(moves))
    for mv in moves:
        w.i64(mv.pid)
        w.i64(mv.src)
        w.i64(mv.dst)


def _get_moves(r: _Reader) -> tuple[MoveDirective, ...]:
    return tuple(
        MoveDirective(r.i64(), r.i64(), r.i64()) for _ in range(r.u32())
    )


def _put_state(w: _Writer, state: PartitionGroupState) -> None:
    w.i64(state.pid)
    w.i64(state.global_depth)
    w.u32(len(state.groups))
    for group in state.groups:
        w.i64(group.pattern)
        w.i64(group.local_depth)
        w.u32(len(group.streams))
        for committed, fresh in group.streams:
            _put_batch(w, committed)
            _put_batch(w, fresh)


def _get_state(r: _Reader) -> PartitionGroupState:
    pid = r.i64()
    global_depth = r.i64()
    groups = []
    for _ in range(r.u32()):
        pattern = r.i64()
        local_depth = r.i64()
        streams = tuple(
            (_get_batch(r), _get_batch(r)) for _ in range(r.u32())
        )
        groups.append(GroupState(pattern, local_depth, streams))
    return PartitionGroupState(pid, global_depth, tuple(groups))


def _put_pairs(w: _Writer, pairs: np.ndarray | None) -> None:
    """Optional ``(n, 2)`` int64 pair matrix (flattened on the wire)."""
    if pairs is None:
        w.u8(0)
        return
    w.u8(1)
    w.array(np.asarray(pairs, dtype=np.int64).reshape(-1))


def _get_pairs(r: _Reader) -> np.ndarray | None:
    if not r.u8():
        return None
    flat = r.array().astype(np.int64, copy=False)
    if len(flat) % 2:
        raise WireError("pair matrix with odd element count")
    return flat.reshape(-1, 2)


def _put_checkpoint(w: _Writer, cp: Checkpoint) -> None:
    w.i64(cp.pid)
    w.i64(cp.epoch)
    _put_state(w, cp.state)
    _put_batch(w, cp.buffered)
    _put_pairs(w, cp.pairs)


def _get_checkpoint(r: _Reader) -> Checkpoint:
    return Checkpoint(
        r.i64(), r.i64(), _get_state(r), _get_batch(r), _get_pairs(r)
    )


def _put_report(w: _Writer, report: LoadReport) -> None:
    w.i64(report.epoch)
    w.f64(report.avg_occupancy)
    w.f64(report.last_occupancy)
    w.i64(report.window_bytes)


def _get_report(r: _Reader) -> LoadReport:
    return LoadReport(r.i64(), r.f64(), r.f64(), r.i64())


# -- message bodies ----------------------------------------------------------


def _enc_shipment(w: _Writer, m: Shipment) -> None:
    w.i64(m.epoch)
    w.f64(m.epoch_start)
    w.f64(m.epoch_end)
    _put_batch(w, m.batch)


def _dec_shipment(r: _Reader) -> Shipment:
    return Shipment(r.i64(), r.f64(), r.f64(), _get_batch(r))


def _enc_load_report(w: _Writer, m: LoadReport) -> None:
    _put_report(w, m)


def _dec_load_report(r: _Reader) -> LoadReport:
    return _get_report(r)


def _enc_reorg_order(w: _Writer, m: ReorgOrder) -> None:
    w.i64(m.epoch)
    _put_moves(w, m.outgoing)
    _put_moves(w, m.incoming)
    w.u8(1 if m.deactivate else 0)
    w.f64(m.clock)
    _put_schedule(w, m.schedule)
    w.u32(len(m.adopt))
    for pid in m.adopt:
        w.i64(pid)
    w.u32(len(m.checkpoint_pids))
    for pid in m.checkpoint_pids:
        w.i64(pid)


def _dec_reorg_order(r: _Reader) -> ReorgOrder:
    epoch = r.i64()
    outgoing = _get_moves(r)
    incoming = _get_moves(r)
    deactivate = bool(r.u8())
    clock = r.f64()
    schedule = _get_schedule(r)
    adopt = tuple(r.i64() for _ in range(r.u32()))
    checkpoint_pids = tuple(r.i64() for _ in range(r.u32()))
    return ReorgOrder(
        epoch,
        outgoing=outgoing,
        incoming=incoming,
        deactivate=deactivate,
        clock=clock,
        schedule=schedule,
        adopt=adopt,
        checkpoint_pids=checkpoint_pids,
    )


def _enc_state_transfer(w: _Writer, m: StateTransfer) -> None:
    w.i64(m.pid)
    _put_state(w, m.state)
    _put_batch(w, m.buffered)


def _dec_state_transfer(r: _Reader) -> StateTransfer:
    return StateTransfer(r.i64(), _get_state(r), _get_batch(r))


def _enc_move_ack(w: _Writer, m: MoveAck) -> None:
    w.i64(m.pid)
    w.str_(m.role)
    _put_pairs(w, m.pairs)


def _dec_move_ack(r: _Reader) -> MoveAck:
    return MoveAck(r.i64(), r.str_(), _get_pairs(r))


def _enc_activate(w: _Writer, m: Activate) -> None:
    w.i64(m.epoch)
    w.f64(m.clock)
    _put_schedule(w, m.schedule)


def _dec_activate(r: _Reader) -> Activate:
    return Activate(r.i64(), r.f64(), _get_schedule(r))


def _enc_result_report(w: _Writer, m: ResultReport) -> None:
    w.i64(m.epoch)
    _put_delay_stats(w, m.stats)


def _dec_result_report(r: _Reader) -> ResultReport:
    return ResultReport(r.i64(), _get_delay_stats(r))


def _enc_halt(w: _Writer, m: Halt) -> None:
    w.i64(m.epoch)


def _dec_halt(r: _Reader) -> Halt:
    return Halt(r.i64())


def _enc_slave_sync(w: _Writer, m: SlaveSync) -> None:
    w.i64(m.epoch)
    _put_report(w, m.report)


def _dec_slave_sync(r: _Reader) -> SlaveSync:
    return SlaveSync(r.i64(), _get_report(r))


def _enc_replicate(w: _Writer, m: Replicate) -> None:
    w.i64(m.epoch)
    w.u32(len(m.entries))
    for pid, epoch, batch in m.entries:
        w.i64(pid)
        w.i64(epoch)
        _put_batch(w, batch)
    w.u32(len(m.drops))
    for pid in m.drops:
        w.i64(pid)
    w.u32(len(m.checkpoints))
    for cp in m.checkpoints:
        _put_checkpoint(w, cp)


def _dec_replicate(r: _Reader) -> Replicate:
    epoch = r.i64()
    entries = tuple(
        (r.i64(), r.i64(), _get_batch(r)) for _ in range(r.u32())
    )
    drops = tuple(r.i64() for _ in range(r.u32()))
    checkpoints = tuple(_get_checkpoint(r) for _ in range(r.u32()))
    return Replicate(
        epoch, entries=entries, drops=drops, checkpoints=checkpoints
    )


def _enc_checkpoint(w: _Writer, m: Checkpoint) -> None:
    _put_checkpoint(w, m)


def _dec_checkpoint(r: _Reader) -> Checkpoint:
    return _get_checkpoint(r)


def _enc_restore(w: _Writer, m: Restore) -> None:
    w.i64(m.epoch)
    w.u32(len(m.pids))
    for pid in m.pids:
        w.i64(pid)


def _dec_restore(r: _Reader) -> Restore:
    epoch = r.i64()
    pids = tuple(r.i64() for _ in range(r.u32()))
    return Restore(epoch, pids)


#: Standby op-log record kinds (see ``StandbySync.ops``).  The scalar
#: slots are typed per kind: ``gen`` carries two floats, ``drain`` an
#: int + float, ``remap`` two ints.
_OP_CODES = {"gen": 0, "drain": 1, "remap": 2}
_OP_KINDS = {code: kind for kind, code in _OP_CODES.items()}
_OP_INT_SLOTS = {"gen": (), "drain": (0,), "remap": (0, 1)}


def _put_ops(w: _Writer, ops: t.Sequence[tuple]) -> None:
    w.u32(len(ops))
    for kind, a, b in ops:
        code = _OP_CODES.get(kind)
        if code is None:
            raise WireError(f"unknown standby op kind: {kind!r}")
        w.u8(code)
        w.f64(a)
        w.f64(b)


def _get_ops(r: _Reader) -> tuple[tuple, ...]:
    ops = []
    for _ in range(r.u32()):
        code = r.u8()
        kind = _OP_KINDS.get(code)
        if kind is None:
            raise WireError(f"unknown standby op code: {code}")
        slots = [r.f64(), r.f64()]
        for i in _OP_INT_SLOTS[kind]:
            slots[i] = int(slots[i])
        ops.append((kind, slots[0], slots[1]))
    return tuple(ops)


def _put_int_seq(w: _Writer, values: t.Sequence[int]) -> None:
    w.u32(len(values))
    for v in values:
        w.i64(v)


def _get_int_seq(r: _Reader) -> tuple[int, ...]:
    return tuple(r.i64() for _ in range(r.u32()))


def _enc_standby_sync(w: _Writer, m: StandbySync) -> None:
    w.i64(m.epoch)
    _put_ops(w, m.ops)
    _put_int_seq(w, m.active)
    _put_int_seq(w, m.dead)
    w.f64(m.next_gen_time)
    w.u32(len(m.backup_of))
    for pid, backup in m.backup_of:
        w.i64(pid)
        w.i64(backup)
    _put_int_seq(w, m.covered)
    w.u32(len(m.pending))
    for backup, rep in m.pending:
        w.i64(backup)
        _enc_replicate(w, rep)
    w.str_(m.failures_json)
    w.u32(len(m.pairs))
    for slave, pid, epoch, rows in m.pairs:
        w.i64(slave)
        w.i64(pid)
        w.i64(epoch)
        _put_pairs(w, rows)


def _dec_standby_sync(r: _Reader) -> StandbySync:
    epoch = r.i64()
    ops = _get_ops(r)
    active = _get_int_seq(r)
    dead = _get_int_seq(r)
    next_gen_time = r.f64()
    backup_of = tuple((r.i64(), r.i64()) for _ in range(r.u32()))
    covered = _get_int_seq(r)
    pending = tuple((r.i64(), _dec_replicate(r)) for _ in range(r.u32()))
    failures_json = r.str_()
    pairs = []
    for _ in range(r.u32()):
        slave, pid, pepoch = r.i64(), r.i64(), r.i64()
        rows = _get_pairs(r)
        if rows is None:
            raise WireError("standby sync pair chunk without rows")
        pairs.append((slave, pid, pepoch, rows))
    return StandbySync(
        epoch,
        ops=ops,
        active=active,
        dead=dead,
        next_gen_time=next_gen_time,
        backup_of=backup_of,
        covered=covered,
        pending=pending,
        failures_json=failures_json,
        pairs=tuple(pairs),
    )


def _enc_standby_plan(w: _Writer, m: StandbyPlan) -> None:
    w.i64(m.epoch)
    _put_moves(w, m.moves)
    _put_int_seq(w, m.new_active)
    _put_int_seq(w, m.deactivate)
    w.u32(len(m.remaps))
    for pid, dst in m.remaps:
        w.i64(pid)
        w.i64(dst)
    _put_int_seq(w, m.restores)


def _dec_standby_plan(r: _Reader) -> StandbyPlan:
    return StandbyPlan(
        r.i64(),
        moves=_get_moves(r),
        new_active=_get_int_seq(r),
        deactivate=_get_int_seq(r),
        remaps=tuple((r.i64(), r.i64()) for _ in range(r.u32())),
        restores=_get_int_seq(r),
    )


def _enc_take_over(w: _Writer, m: TakeOver) -> None:
    w.i64(m.epoch)
    w.f64(m.clock)
    _put_schedule(w, m.schedule)
    w.u8(1 if m.active else 0)
    w.i64(m.plan_epoch)
    _put_moves(w, m.pending_in)


def _dec_take_over(r: _Reader) -> TakeOver:
    return TakeOver(
        r.i64(),
        clock=r.f64(),
        schedule=_get_schedule(r),
        active=bool(r.u8()),
        plan_epoch=r.i64(),
        pending_in=_get_moves(r),
    )


def _enc_rejoin(w: _Writer, m: Rejoin) -> None:
    w.i64(m.epoch)
    _put_int_seq(w, m.owned_pids)
    w.i64(m.last_shipment_epoch)
    w.i64(m.last_order_epoch)
    w.u8(1 if m.active else 0)
    w.u32(len(m.pairs))
    for pid, epoch, rows in m.pairs:
        w.i64(pid)
        w.i64(epoch)
        _put_pairs(w, rows)


def _dec_rejoin(r: _Reader) -> Rejoin:
    epoch = r.i64()
    owned_pids = _get_int_seq(r)
    last_shipment_epoch = r.i64()
    last_order_epoch = r.i64()
    active = bool(r.u8())
    pairs = []
    for _ in range(r.u32()):
        pid, pepoch = r.i64(), r.i64()
        rows = _get_pairs(r)
        if rows is None:
            raise WireError("rejoin pair chunk without rows")
        pairs.append((pid, pepoch, rows))
    return Rejoin(
        epoch,
        owned_pids=owned_pids,
        last_shipment_epoch=last_shipment_epoch,
        last_order_epoch=last_order_epoch,
        active=active,
        pairs=tuple(pairs),
    )


#: tag -> (type, encoder, decoder).  Tags are part of the wire format:
#: never renumber, only append (and bump WIRE_VERSION on change).
_TAGS: dict[int, tuple[type, t.Any, t.Any]] = {
    1: (Shipment, _enc_shipment, _dec_shipment),
    2: (LoadReport, _enc_load_report, _dec_load_report),
    3: (ReorgOrder, _enc_reorg_order, _dec_reorg_order),
    4: (StateTransfer, _enc_state_transfer, _dec_state_transfer),
    5: (MoveAck, _enc_move_ack, _dec_move_ack),
    6: (Activate, _enc_activate, _dec_activate),
    7: (ResultReport, _enc_result_report, _dec_result_report),
    8: (Halt, _enc_halt, _dec_halt),
    9: (SlaveSync, _enc_slave_sync, _dec_slave_sync),
    10: (Replicate, _enc_replicate, _dec_replicate),
    11: (Checkpoint, _enc_checkpoint, _dec_checkpoint),
    12: (Restore, _enc_restore, _dec_restore),
    13: (StandbySync, _enc_standby_sync, _dec_standby_sync),
    14: (StandbyPlan, _enc_standby_plan, _dec_standby_plan),
    15: (TakeOver, _enc_take_over, _dec_take_over),
    16: (Rejoin, _enc_rejoin, _dec_rejoin),
}
_TAG_OF = {tp: tag for tag, (tp, _e, _d) in _TAGS.items()}

#: Append-only history of the tag space: version -> the tags that
#: version introduced, with the message type each encodes.  PROTO002
#: cross-checks this ledger against ``_TAGS`` and ``WIRE_VERSION``:
#: every tag must be recorded under exactly one version, no recorded
#: tag may ever be deleted or retyped, new tags go under a *new*
#: version entry, and ``WIRE_VERSION`` must equal the newest version.
#: To evolve the protocol: add the message type + codec, append its
#: tag to ``_TAGS``, record it here under ``WIRE_VERSION + 1``, and
#: bump ``WIRE_VERSION``.
_TAG_LEDGER: dict[int, tuple[tuple[int, str], ...]] = {
    1: (
        (1, "Shipment"),
        (2, "LoadReport"),
        (3, "ReorgOrder"),
        (4, "StateTransfer"),
        (5, "MoveAck"),
        (6, "Activate"),
        (7, "ResultReport"),
        (8, "Halt"),
        (9, "SlaveSync"),
    ),
    2: (
        (10, "Replicate"),
        (11, "Checkpoint"),
        (12, "Restore"),
    ),
    3: (
        (13, "StandbySync"),
        (14, "StandbyPlan"),
        (15, "TakeOver"),
        (16, "Rejoin"),
    ),
}


def encode_message(message: t.Any) -> bytes:
    """Serialize one protocol message to wire bytes (header + body)."""
    tag = _TAG_OF.get(type(message))
    if tag is None:
        raise WireError(
            f"{type(message).__name__} is not a wire message type"
        )
    w = _Writer()
    w.buf += MAGIC
    w.u8(WIRE_VERSION)
    w.u8(tag)
    _TAGS[tag][1](w, message)
    return bytes(w.buf)


def decode_message(data: bytes) -> t.Any:
    """Deserialize wire bytes back into a protocol message.

    Raises :class:`~repro.errors.WireError` on a bad magic, an
    unsupported version, an unknown tag, truncation, or trailing bytes.
    """
    r = _Reader(data)
    magic = r.take(2)
    if magic != MAGIC:
        raise WireError(f"bad frame magic: {magic!r}")
    version = r.u8()
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    tag = r.u8()
    entry = _TAGS.get(tag)
    if entry is None:
        raise WireError(f"unknown message tag: {tag}")
    message = entry[2](r)
    r.done()
    return message
