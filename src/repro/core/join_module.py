"""The slave-side join module (Section IV-D).

The join module owns a set of partition-groups, a partitioned stream
buffer (one mini-buffer per partition, as at the master), and turns
buffered tuples into a sequence of **work units**.  Each unit carries
the simulated CPU cost of one step of the paper's algorithm:

* ``expire``  — dropping expired blocks from the front of every window;
* ``probe``   — flushing a fresh head block: joining the fresh tuples
  against the opposite stream's committed window in the same
  mini-partition-group via the configured join kernel
  (:mod:`repro.core.kernels`), charged that kernel's cost model;
* ``tune``    — splitting an oversized mini-group / merging undersized
  buddies (fine-grained partition tuning).

The slave's join process drives the generator::

    for unit in module.work_units():
        yield runtime.cpu(unit.cost)      # simulated work
        unit.execute(runtime.now())       # mutate state, emit outputs

Laziness is essential: a unit's cost is computed from the state *at
generation time*, and the generator only resumes after the previous
unit has executed, so cost and effect always agree.
"""

from __future__ import annotations

import typing as t
from collections import deque

import numpy as np

from repro.core.costmodel import CostModel
from repro.core.hashing import partition_of
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import (
    JoinGeometry,
    MiniGroup,
    PartitionGroup,
    PartitionGroupState,
)
from repro.core.protocol import Shipment
from repro.data.tuples import TupleBatch
from repro.errors import ProtocolError
from repro.obs.events import DirectoryEvent, MergeEvent, SplitEvent
from repro.obs.tracer import NULL_TRACER, Tracer


class WorkUnit:
    """One costed step of join processing."""

    __slots__ = ("kind", "cost", "_run")

    def __init__(
        self, kind: str, cost: float, run: t.Callable[[float], None]
    ) -> None:
        self.kind = kind
        self.cost = cost
        self._run = run

    def execute(self, emit_time: float) -> None:
        self._run(emit_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkUnit {self.kind} cost={self.cost:.3g}s>"


class JoinModule:
    """Join processing state of one slave node."""

    def __init__(
        self,
        node_id: int,
        geometry: JoinGeometry,
        cost_model: CostModel,
        npart: int,
        metrics: SlaveMetrics,
        collect_pairs: bool = False,
        memory_bytes: int | None = None,
        tracer: Tracer = NULL_TRACER,
        now_fn: t.Callable[[], float] | None = None,
    ) -> None:
        self.node_id = node_id
        self.geometry = geometry
        self.cost_model = cost_model
        self.npart = npart
        self.metrics = metrics
        self.collect_pairs = collect_pairs
        #: Window-state memory; the excess over this spills to disk
        #: (None = unlimited, the paper's Section VI-A assumption).
        self.memory_bytes = memory_bytes
        self.tracer = tracer
        #: Clock for trace timestamps (the runtime's ``now``); tuning
        #: runs inside ``WorkUnit.execute`` so this equals ``emit_time``.
        self._now_fn = now_fn
        self.groups: dict[int, PartitionGroup] = {}
        self._minibuffers: dict[int, deque[TupleBatch]] = {}
        self._pending_bytes = 0
        self._oldest_pending_ts = float("inf")

    # -- partition ownership ------------------------------------------------
    def owned_pids(self) -> list[int]:
        return sorted(self.groups)

    def add_partition(self, pid: int) -> None:
        if pid in self.groups:
            raise ProtocolError(f"node {self.node_id} already owns partition {pid}")
        on_double = self._directory_doubled if self.tracer.enabled else None
        self.groups[pid] = PartitionGroup(pid, self.geometry, on_double=on_double)
        self._minibuffers.setdefault(pid, deque())

    def _directory_doubled(self, pid: int, depth: int) -> None:
        # Callback wired only when tracing is on (add_partition), but the
        # zero-overhead contract is enforced here too: never construct the
        # event against a disabled tracer.
        if not self.tracer.enabled:
            return
        now = self._now_fn() if self._now_fn is not None else 0.0
        self.tracer.emit(
            DirectoryEvent(t=now, node=self.node_id, pid=pid, depth=depth)
        )

    def extract_partition(self, pid: int) -> tuple[PartitionGroupState, TupleBatch]:
        """Drain window state + unprocessed buffered tuples of *pid*
        (the supplier side of a state move)."""
        group = self.groups.pop(pid, None)
        if group is None:
            raise ProtocolError(f"node {self.node_id} does not own partition {pid}")
        state = group.extract_state()
        buffered = TupleBatch.concat(list(self._minibuffers.pop(pid, deque())))
        self._pending_bytes -= buffered.payload_bytes(self.geometry.tuple_bytes)
        # The popped mini-buffer may have been the one pinning the expiry
        # watermark; re-derive it from the surviving queues.
        self._rearm_watermark()
        self.metrics.groups_moved_out += 1
        return state, buffered

    def _rearm_watermark(self) -> None:
        """Recompute ``_oldest_pending_ts`` from the surviving queues
        (``inf`` when all are empty).  Every queued batch is inspected,
        not just the head: a later batch can hold *older* tuples — a
        restore replays the checkpointed mini-buffer followed by logged
        shipments whose epochs overlap it, and a post-move shipment can
        trail tuples predating an earlier one — and a cutoff derived
        from the head alone would expire window tuples those batches
        still need to join against.  Folded into the live field, as in
        :meth:`_drain`, so a concurrent ``enqueue`` is never lost."""
        self._oldest_pending_ts = float("inf")
        for queue in self._minibuffers.values():
            for batch in tuple(queue):  # snapshot: see _drain
                self._oldest_pending_ts = min(
                    self._oldest_pending_ts, float(batch.ts.min())
                )

    def snapshot_partition(self, pid: int) -> tuple[PartitionGroupState, TupleBatch]:
        """Non-destructive copy of *pid*'s window state + unprocessed
        buffered tuples (the owner side of a replication checkpoint)."""
        group = self.groups.get(pid)
        if group is None:
            raise ProtocolError(f"node {self.node_id} does not own partition {pid}")
        state = group.snapshot_state()
        buffered = TupleBatch.concat(list(self._minibuffers.get(pid, deque())))
        return state, buffered

    def restore_partition(
        self,
        pid: int,
        state: PartitionGroupState | None,
        buffered: TupleBatch | None,
        log: t.Sequence[TupleBatch] = (),
    ) -> None:
        """Rebuild *pid* from a replication checkpoint plus log replay.

        ``state``/``buffered`` are the checkpointed window state and
        unprocessed mini-buffer (``None`` = the implicit empty genesis
        checkpoint); ``log`` carries the teed per-epoch shipments since
        the checkpoint, replayed through the normal buffering path so
        the regular work units regenerate the lost join output.
        """
        self.add_partition(pid)
        if state is not None:
            self.groups[pid].install_state(state)
        replay = list(log)
        if buffered is not None and len(buffered):
            replay.insert(0, buffered)
        tb = self.geometry.tuple_bytes
        for batch in replay:
            if not len(batch):
                continue
            self._minibuffers[pid].append(batch)
            self._pending_bytes += batch.payload_bytes(tb)
            self._oldest_pending_ts = min(
                self._oldest_pending_ts, float(batch.ts.min())
            )

    def install_partition(
        self, pid: int, state: PartitionGroupState, buffered: TupleBatch
    ) -> None:
        """Install a moved partition-group (the consumer side)."""
        self.add_partition(pid)
        self.groups[pid].install_state(state)
        if len(buffered):
            self._minibuffers[pid].append(buffered)
            self._pending_bytes += buffered.payload_bytes(self.geometry.tuple_bytes)
            self._oldest_pending_ts = min(
                self._oldest_pending_ts, float(buffered.ts.min())
            )
        self.metrics.groups_moved_in += 1

    # -- buffering ---------------------------------------------------------
    def enqueue(self, shipment: Shipment) -> None:
        """File an epoch's shipment into the per-partition mini-buffers."""
        batch = shipment.batch
        if len(batch):
            pids = partition_of(batch.key, self.npart)
            for pid in np.unique(pids):
                sub = batch.take(np.flatnonzero(pids == pid))
                pid = int(pid)
                if pid not in self.groups:
                    raise ProtocolError(
                        f"node {self.node_id} received tuples for partition "
                        f"{pid} it does not own"
                    )
                self._minibuffers[pid].append(sub)
            self._pending_bytes += batch.payload_bytes(self.geometry.tuple_bytes)
            # A shipment right after a partition move can carry tuples
            # that predate this slave's epoch window — and need not be
            # timestamp-sorted — so the expiry cutoff must respect the
            # true oldest timestamp, not the first.
            self._oldest_pending_ts = min(
                self._oldest_pending_ts, float(batch.ts.min())
            )
        self._oldest_pending_ts = min(self._oldest_pending_ts, shipment.epoch_start)

    @property
    def pending_bytes(self) -> int:
        """Unprocessed buffered tuple bytes (drives buffer occupancy)."""
        return self._pending_bytes

    def occupancy(self, capacity_bytes: int) -> float:
        """Buffer occupancy; may exceed 1.0 when the node is overloaded
        (the paper assumes enough memory; values above the supplier
        threshold are what matters)."""
        return self._pending_bytes / capacity_bytes

    @property
    def window_bytes(self) -> int:
        """Block-granular bytes held by all owned windows."""
        return sum(g.bytes_used for g in self.groups.values())

    @property
    def has_work(self) -> bool:
        return any(self._minibuffers.values())

    def spill_fraction(self) -> float:
        """Fraction of window state currently residing on disk."""
        if self.memory_bytes is None:
            return 0.0
        window = self.window_bytes
        if window <= self.memory_bytes:
            return 0.0
        return 1.0 - self.memory_bytes / window

    # -- work generation ------------------------------------------------------
    def work_units(self) -> t.Iterator[WorkUnit]:
        """Generate costed work for ONE bounded pass over the buffers.

        A pass covers at most one buffered batch per partition (roughly
        one epoch's shipment); a backlogged slave needs several passes
        to drain (the driver re-arms itself while :attr:`has_work`).
        Bounding the pass keeps the slave's state lock from being
        starved under overload: state moves and reorganization orders
        grab the lock between passes, so the paper's rebalancing can
        still reach an overloaded node.
        """
        if not self.has_work:
            return
        cutoff = self._oldest_pending_ts - self.geometry.window_seconds
        drained = self._drain()
        yield self._expire_unit(cutoff)
        for pid in sorted(drained):
            group = self.groups.get(pid)
            if group is None:  # moved away mid-backlog; cannot happen
                raise ProtocolError(f"lost partition {pid} with pending data")
            yield from self._ingest_units(group, drained[pid])
            yield from self._final_flush_units(group)
            if self.geometry.fine_tuning:
                yield from self._tuning_units(group)

    def _drain(self, max_batches_per_pid: int = 1) -> dict[int, TupleBatch]:
        # Reset the oldest-pending watermark *before* popping so a
        # concurrent enqueue (thread backend) can only make the expiry
        # cutoff more conservative, never unsafe.
        self._oldest_pending_ts = float("inf")
        out: dict[int, TupleBatch] = {}
        for pid, queue in self._minibuffers.items():
            if queue:
                parts = [
                    queue.popleft()
                    for _ in range(min(len(queue), max_batches_per_pid))
                ]
                out[pid] = TupleBatch.concat(parts)
            # Batches left behind re-arm the expiry watermark.  Scan
            # them ALL: tuples need not be timestamp-sorted within a
            # batch (post-move shipments) nor monotone across batches
            # (restore-replay queues a checkpointed mini-buffer ahead
            # of logged shipments that overlap it), so the head batch
            # alone can overstate the oldest pending timestamp.  Scan a
            # snapshot: on the wall-clock backends the slave's receive
            # thread may append to this deque mid-scan, and iterating a
            # deque while it grows raises.
            for batch in tuple(queue):
                self._oldest_pending_ts = min(
                    self._oldest_pending_ts, float(batch.ts.min())
                )
        return out

    # -- unit builders ----------------------------------------------------------
    def _expire_unit(self, cutoff: float) -> WorkUnit:
        expired_bytes = 0
        tb = self.geometry.tuple_bytes
        for group in self.groups.values():
            for bucket in group.directory.buckets():
                for window in bucket.payload.windows:
                    idx = int(np.searchsorted(window.committed.ts, cutoff, "left"))
                    expired_bytes += idx * tb
        cost = self.cost_model.expire_cost(expired_bytes)

        def run(_emit_time: float) -> None:
            for group in self.groups.values():
                for bucket in group.directory.buckets():
                    bucket.payload.expire_before(cutoff)

        return WorkUnit("expire", cost, run)

    def _ingest_units(
        self, group: PartitionGroup, batch: TupleBatch
    ) -> t.Iterator[WorkUnit]:
        tb = self.geometry.tuple_bytes
        for sid in range(self.geometry.n_streams):
            sub = batch.by_stream(sid)
            if not len(sub):
                continue
            slots, buckets = group.route(sub.key)
            for slot in sorted(buckets):
                mini = buckets[slot].payload
                idx = np.flatnonzero(slots == slot)
                ts, key, seq = sub.ts[idx], sub.key[idx], sub.seq[idx]
                window = mini.windows[sid]
                pos, n = 0, len(idx)
                while pos < n:
                    take = min(window.head_space(), n - pos)
                    window.append_fresh(
                        ts[pos : pos + take],
                        key[pos : pos + take],
                        seq[pos : pos + take],
                    )
                    self._pending_bytes -= take * tb
                    self.metrics.tuples_processed += take
                    pos += take
                    if window.head_space() == 0:
                        # Head block full: it joins now (Section IV-D).
                        yield self._flush_unit(group.pid, mini, sid)

    def _final_flush_units(self, group: PartitionGroup) -> t.Iterator[WorkUnit]:
        """Flush partial head blocks once the partition's buffer drained.

        Stream order 0-then-1 implements the duplicate-elimination rule
        for fresh/fresh pairs within the same pass.
        """
        for bucket in group.directory.buckets():
            for sid in range(self.geometry.n_streams):
                if bucket.payload.windows[sid].n_fresh:
                    yield self._flush_unit(group.pid, bucket.payload, sid)

    def _flush_unit(self, pid: int, mini: MiniGroup, sid: int) -> WorkUnit:
        window = mini.windows[sid]
        # Each opposite window's kernel decides what the probe touches:
        # block-NLJ scans its committed blocks wholesale, the indexed
        # kernel only the candidate tuples its buckets return.  The
        # kernel likewise picks the matching cost formula, so an indexed
        # run is charged the indexed model, never the NLJ cross-product.
        _ts, fresh_key, _seq = window.fresh_view()
        tb = self.geometry.tuple_bytes
        scanned = sum(
            w.probe_scan_bytes(fresh_key, tb)
            for k, w in enumerate(mini.windows)
            if k != sid
        )
        spilled = int(scanned * self.spill_fraction())
        cost = window.kernel.probe_cost(
            self.cost_model, window.n_fresh, scanned, spilled
        )
        if spilled:
            self.metrics.disk_bytes_read += spilled

        def run(emit_time: float) -> None:
            result = mini.flush_stream(sid, collect_pairs=self.collect_pairs)
            self.metrics.record_outputs(emit_time, result.newer_ts)
            if self.collect_pairs and result.pairs is not None:
                rows = result.pairs
                if len(rows):
                    if self.geometry.n_streams == 2 and sid == 1:
                        # Normalize the pairwise orientation to
                        # (stream-0 seq, stream-1 seq).
                        rows = rows[:, ::-1]
                    self.metrics.record_pairs(pid, rows)

        return WorkUnit("probe", cost, run)

    def _tuning_units(self, group: PartitionGroup) -> t.Iterator[WorkUnit]:
        # Split every oversized mini-group; children may still overflow
        # under heavy key skew, so iterate to a fixed point.
        while True:
            oversized = group.oversized_buckets()
            if not oversized:
                break
            for bucket in oversized:
                cost = self.cost_model.tuning_cost(bucket.payload.bytes_used)

                def run(_emit: float, b=bucket, g=group) -> None:
                    moved = g.split_bucket(b)
                    self.metrics.splits += 1
                    if self.tracer.enabled:
                        self.tracer.emit(
                            SplitEvent(
                                t=_emit,
                                node=self.node_id,
                                pid=g.pid,
                                n_buckets=g.n_mini_groups,
                                depth=g.directory.global_depth,
                                bytes=moved,
                            )
                        )

                yield WorkUnit("tune", cost, run)
        # One merge round per pass (further merges happen next pass).
        for bucket in group.undersized_buckets():
            if group.directory.bucket_for(bucket.pattern) is not bucket:
                continue  # already merged away this round
            buddy = group.directory.buddy_of(bucket)
            if buddy is None:
                continue
            combined = bucket.payload.bytes_used + buddy.payload.bytes_used
            if combined >= 2 * self.geometry.theta_bytes:
                continue
            cost = self.cost_model.tuning_cost(combined)

            def run(_emit: float, b=bucket, g=group) -> None:
                touched = g.try_merge_bucket(b)
                if touched:
                    self.metrics.merges += 1
                    if self.tracer.enabled:
                        self.tracer.emit(
                            MergeEvent(
                                t=_emit,
                                node=self.node_id,
                                pid=g.pid,
                                n_buckets=g.n_mini_groups,
                                depth=g.directory.global_depth,
                                bytes=touched,
                            )
                        )

            yield WorkUnit("tune", cost, run)
