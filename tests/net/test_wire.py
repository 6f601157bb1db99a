"""Round-trip property suite for the process backend's wire codec.

Every :mod:`repro.core.protocol` message type (plus the payload
structures that ride inside them) must encode/decode to an equal value,
and malformed frames must raise :class:`~repro.errors.WireError` —
never return a partially decoded message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import DelayStats
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
from repro.data.tuples import TupleBatch
from repro.errors import WireError
from repro.net.wire import MAGIC, WIRE_VERSION, decode_message, encode_message

# -- strategies ---------------------------------------------------------------

epochs = st.integers(min_value=0, max_value=2**31)
node_ids = st.integers(min_value=0, max_value=64)
pids = st.integers(min_value=0, max_value=2**20)
times = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
fractions = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def tuple_batches(draw, max_size=64):
    n = draw(st.integers(min_value=0, max_value=max_size))
    ts = np.sort(
        np.asarray(
            draw(
                st.lists(times, min_size=n, max_size=n)
            ),
            dtype=np.float64,
        )
    )
    key = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=10**7),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    seq = np.arange(n, dtype=np.int64)
    stream = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=3), min_size=n, max_size=n
            )
        ),
        dtype=np.uint8,
    )
    return TupleBatch(ts, key, seq, stream)


@st.composite
def delay_stats(draw):
    stats = DelayStats()
    delays = draw(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e4,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=32,
        )
    )
    if delays:
        stats.observe_many(np.asarray(delays, dtype=np.float64))
    return stats


schedules = st.one_of(
    st.none(),
    st.builds(
        SlotSchedule,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
    ),
)

moves = st.builds(MoveDirective, pids, node_ids, node_ids)


@st.composite
def group_states(draw):
    n_streams = draw(st.integers(min_value=2, max_value=3))
    streams = tuple(
        (draw(tuple_batches(max_size=8)), draw(tuple_batches(max_size=8)))
        for _ in range(n_streams)
    )
    return GroupState(
        pattern=draw(st.integers(min_value=0, max_value=2**16)),
        local_depth=draw(st.integers(min_value=0, max_value=16)),
        streams=streams,
    )


@st.composite
def partition_states(draw):
    return PartitionGroupState(
        pid=draw(pids),
        global_depth=draw(st.integers(min_value=0, max_value=16)),
        groups=tuple(
            draw(st.lists(group_states(), min_size=0, max_size=3))
        ),
    )


load_reports = st.builds(LoadReport, epochs, fractions, fractions, pids)


@st.composite
def pair_matrices(draw, max_rows=8):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**40),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
    return np.asarray(flat, dtype=np.int64).reshape(-1, 2)


maybe_pairs = st.one_of(st.none(), pair_matrices())

checkpoints = st.builds(
    Checkpoint, pids, epochs, partition_states(), tuple_batches(), maybe_pairs
)


@st.composite
def log_entries(draw, max_size=3):
    n = draw(st.integers(min_value=0, max_value=max_size))
    return tuple(
        (draw(pids), draw(epochs), draw(tuple_batches(max_size=8)))
        for _ in range(n)
    )


replicates = st.builds(
    Replicate,
    epochs,
    log_entries(),
    st.lists(pids, max_size=4).map(tuple),
    st.lists(checkpoints, max_size=2).map(tuple),
)


@st.composite
def standby_ops(draw, max_size=4):
    """Round-boundary op logs: int-typed slots must hold ints (the
    codec narrows them back from f64 on decode)."""
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        kind = draw(st.sampled_from(["gen", "drain", "remap"]))
        if kind == "gen":
            out.append((kind, draw(times), draw(times)))
        elif kind == "drain":
            out.append((kind, draw(node_ids), draw(times)))
        else:
            out.append((kind, draw(pids), draw(node_ids)))
    return tuple(out)


@st.composite
def banked_pairs(draw, max_size=3):
    """StandbySync pair chunks: ``(slave, pid, epoch, rows)``."""
    return tuple(
        (draw(node_ids), draw(pids), draw(epochs), draw(pair_matrices()))
        for _ in range(draw(st.integers(min_value=0, max_value=max_size)))
    )


@st.composite
def rejoin_pairs(draw, max_size=3):
    """Rejoin pair chunks: ``(pid, epoch, rows)``."""
    return tuple(
        (draw(pids), draw(epochs), draw(pair_matrices()))
        for _ in range(draw(st.integers(min_value=0, max_value=max_size)))
    )


standby_syncs = st.builds(
    StandbySync,
    epochs,
    standby_ops(),
    st.lists(node_ids, max_size=6).map(tuple),
    st.lists(node_ids, max_size=4).map(tuple),
    times,
    st.lists(st.tuples(pids, node_ids), max_size=4).map(tuple),
    st.lists(pids, max_size=4).map(tuple),
    st.lists(st.tuples(node_ids, replicates), max_size=2).map(tuple),
    st.sampled_from(
        ["[]", '[{"slave": 3, "epoch": 2, "recovery_latency": null}]']
    ),
    banked_pairs(),
)

standby_plans = st.builds(
    StandbyPlan,
    epochs,
    st.lists(moves, max_size=4).map(tuple),
    st.lists(node_ids, max_size=4).map(tuple),
    st.lists(node_ids, max_size=4).map(tuple),
    st.lists(st.tuples(pids, node_ids), max_size=4).map(tuple),
    st.lists(pids, max_size=4).map(tuple),
)

take_overs = st.builds(
    TakeOver,
    epochs,
    times,
    schedules,
    st.booleans(),
    st.integers(min_value=-1, max_value=2**31),
    st.lists(moves, max_size=4).map(tuple),
)

rejoins = st.builds(
    Rejoin,
    epochs,
    st.lists(pids, max_size=6).map(tuple),
    st.integers(min_value=-1, max_value=2**31),
    st.integers(min_value=-1, max_value=2**31),
    st.booleans(),
    rejoin_pairs(),
)


messages = st.one_of(
    st.builds(Shipment, epochs, times, times, tuple_batches()),
    load_reports,
    st.builds(
        ReorgOrder,
        epochs,
        st.lists(moves, max_size=4).map(tuple),
        st.lists(moves, max_size=4).map(tuple),
        st.booleans(),
        times,
        schedules,
        st.lists(pids, max_size=4).map(tuple),
        st.lists(pids, max_size=4).map(tuple),
    ),
    st.builds(StateTransfer, pids, partition_states(), tuple_batches()),
    st.builds(
        MoveAck,
        pids,
        st.sampled_from(["supplier", "consumer", "adopt", "restore"]),
        maybe_pairs,
    ),
    st.builds(Activate, epochs, times, schedules),
    st.builds(ResultReport, epochs, delay_stats()),
    st.builds(Halt, epochs),
    st.builds(SlaveSync, epochs, load_reports),
    checkpoints,
    replicates,
    st.builds(Restore, epochs, st.lists(pids, max_size=6).map(tuple)),
    standby_syncs,
    standby_plans,
    take_overs,
    rejoins,
)


# -- equality helpers ---------------------------------------------------------


def batches_equal(a: TupleBatch, b: TupleBatch) -> bool:
    return (
        np.array_equal(a.ts, b.ts)
        and np.array_equal(a.key, b.key)
        and np.array_equal(a.seq, b.seq)
        and np.array_equal(a.stream, b.stream)
        and a.ts.dtype == b.ts.dtype
        and a.key.dtype == b.key.dtype
        and a.seq.dtype == b.seq.dtype
        and a.stream.dtype == b.stream.dtype
    )


def stats_equal(a: DelayStats, b: DelayStats) -> bool:
    return (
        a.count == b.count
        and a.total == b.total
        and a.minimum == b.minimum
        and a.maximum == b.maximum
        and np.array_equal(a.histogram, b.histogram)
    )


def states_equal(a: PartitionGroupState, b: PartitionGroupState) -> bool:
    if (a.pid, a.global_depth, len(a.groups)) != (
        b.pid,
        b.global_depth,
        len(b.groups),
    ):
        return False
    for ga, gb in zip(a.groups, b.groups):
        if (ga.pattern, ga.local_depth, len(ga.streams)) != (
            gb.pattern,
            gb.local_depth,
            len(gb.streams),
        ):
            return False
        for (ca, fa), (cb, fb) in zip(ga.streams, gb.streams):
            if not (batches_equal(ca, cb) and batches_equal(fa, fb)):
                return False
    return True


def pairs_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(np.asarray(a), np.asarray(b))


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    return (
        (a.pid, a.epoch) == (b.pid, b.epoch)
        and states_equal(a.state, b.state)
        and batches_equal(a.buffered, b.buffered)
        and pairs_equal(a.pairs, b.pairs)
    )


def messages_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Checkpoint):
        return checkpoints_equal(a, b)
    if isinstance(a, Replicate):
        return (
            a.epoch == b.epoch
            and a.drops == b.drops
            and len(a.entries) == len(b.entries)
            and all(
                ea[:2] == eb[:2] and batches_equal(ea[2], eb[2])
                for ea, eb in zip(a.entries, b.entries)
            )
            and len(a.checkpoints) == len(b.checkpoints)
            and all(
                checkpoints_equal(ca, cb)
                for ca, cb in zip(a.checkpoints, b.checkpoints)
            )
        )
    if isinstance(a, MoveAck):
        return (a.pid, a.role) == (b.pid, b.role) and pairs_equal(
            a.pairs, b.pairs
        )
    if isinstance(a, StandbySync):
        return (
            (a.epoch, a.ops, a.active, a.dead, a.next_gen_time)
            == (b.epoch, b.ops, b.active, b.dead, b.next_gen_time)
            and (a.backup_of, a.covered, a.failures_json)
            == (b.backup_of, b.covered, b.failures_json)
            and len(a.pending) == len(b.pending)
            and all(
                na == nb and messages_equal(ra, rb)
                for (na, ra), (nb, rb) in zip(a.pending, b.pending)
            )
            and len(a.pairs) == len(b.pairs)
            and all(
                pa[:3] == pb[:3] and pairs_equal(pa[3], pb[3])
                for pa, pb in zip(a.pairs, b.pairs)
            )
        )
    if isinstance(a, Rejoin):
        return (
            (a.epoch, a.owned_pids, a.active)
            == (b.epoch, b.owned_pids, b.active)
            and (a.last_shipment_epoch, a.last_order_epoch)
            == (b.last_shipment_epoch, b.last_order_epoch)
            and len(a.pairs) == len(b.pairs)
            and all(
                pa[:2] == pb[:2] and pairs_equal(pa[2], pb[2])
                for pa, pb in zip(a.pairs, b.pairs)
            )
        )
    if isinstance(a, Shipment):
        return (
            (a.epoch, a.epoch_start, a.epoch_end)
            == (b.epoch, b.epoch_start, b.epoch_end)
            and batches_equal(a.batch, b.batch)
        )
    if isinstance(a, StateTransfer):
        return (
            a.pid == b.pid
            and states_equal(a.state, b.state)
            and batches_equal(a.buffered, b.buffered)
        )
    if isinstance(a, ResultReport):
        return a.epoch == b.epoch and stats_equal(a.stats, b.stats)
    # Remaining types hold only hashable scalars/tuples: dataclass
    # equality is exact.
    return a == b


# -- round-trip properties ----------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(message=messages)
    def test_every_message_type_round_trips(self, message):
        decoded = decode_message(encode_message(message))
        assert messages_equal(message, decoded)

    def test_empty_batch_round_trips(self):
        shipment = Shipment(0, 0.0, 2.0, TupleBatch.empty())
        decoded = decode_message(encode_message(shipment))
        assert len(decoded.batch) == 0
        assert batches_equal(shipment.batch, decoded.batch)

    def test_single_tuple_batch_round_trips(self):
        batch = TupleBatch.build([1.5], [42], stream=1)
        decoded = decode_message(encode_message(Shipment(3, 1.0, 2.0, batch)))
        assert batches_equal(batch, decoded.batch)

    def test_multi_block_batch_round_trips(self):
        # Larger than one 4 KiB block of 64 B tuples (64 tuples/block).
        n = 1000
        batch = TupleBatch.build(
            np.linspace(0.0, 10.0, n),
            np.arange(n) * 7 % 10_000,
            stream=np.arange(n) % 2,
        )
        decoded = decode_message(encode_message(Shipment(1, 0.0, 10.0, batch)))
        assert batches_equal(batch, decoded.batch)

    def test_empty_delay_stats_round_trips(self):
        # minimum is +inf before the first record; the codec must carry it.
        decoded = decode_message(encode_message(ResultReport(0, DelayStats())))
        assert decoded.stats.count == 0
        assert decoded.stats.minimum == float("inf")


# -- malformed frames ---------------------------------------------------------


class TestMalformed:
    def frame(self):
        return encode_message(
            Shipment(5, 0.0, 2.0, TupleBatch.build([1.0, 2.0], [3, 4]))
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncation_always_raises(self, data):
        frame = self.frame()
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(WireError):
            decode_message(frame[:cut])

    def test_bad_magic(self):
        frame = self.frame()
        with pytest.raises(WireError, match="magic"):
            decode_message(b"XX" + frame[2:])

    def test_unsupported_version(self):
        frame = self.frame()
        bad = MAGIC + bytes([WIRE_VERSION + 1]) + frame[3:]
        with pytest.raises(WireError, match="version"):
            decode_message(bad)

    def test_unknown_tag(self):
        frame = self.frame()
        bad = frame[:3] + bytes([250]) + frame[4:]
        with pytest.raises(WireError, match="tag"):
            decode_message(bad)

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            decode_message(self.frame() + b"\x00")

    def test_non_wire_object_rejected(self):
        with pytest.raises(WireError, match="not a wire message"):
            encode_message({"not": "a message"})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("count", -3, "count is negative"),
            ("bin", -1, "negative bin"),
            ("bin", 7, "bins sum to"),
            ("count", 99, "bins sum to"),
        ],
    )
    def test_inconsistent_delay_stats(self, field, value, match):
        # The encoder ships fields as they are; the decoder must refuse
        # statistics that would skew the collector's percentiles.
        stats = DelayStats()
        stats.observe_many(np.array([0.01, 0.5, 2.0]))
        if field == "count":
            stats.count = value
        else:
            stats.histogram[10] = value
        with pytest.raises(WireError, match=match):
            decode_message(encode_message(ResultReport(4, stats)))
