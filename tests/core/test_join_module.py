"""The slave join module: buffering, work units, exactness on one node."""

import numpy as np
import pytest

from repro.core.costmodel import CostModel
from repro.core.join_module import JoinModule
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.protocol import Shipment
from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.reference import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload


def make_module(geometry, npart=4, collect_pairs=False, gate_start=0.0):
    metrics = SlaveMetrics(0, MeasurementWindow(gate_start))
    module = JoinModule(
        0,
        geometry,
        CostModel(SystemConfig.paper_defaults().cost),
        npart,
        metrics,
        collect_pairs=collect_pairs,
    )
    for pid in range(npart):
        module.add_partition(pid)
    return module, metrics


def process_all(module, emit_time=100.0):
    total_cost = 0.0
    while module.has_work:  # passes are bounded to one batch per pid
        for unit in module.work_units():
            assert unit.cost >= 0.0
            total_cost += unit.cost
            unit.execute(emit_time)
    return total_cost


def workload_batch(t0, t1, rate=200.0, seed=0, domain=1000):
    wl = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(seed), rate, 0.7, domain
    )
    return wl.generate(t0, t1)


class TestBuffering:
    def test_enqueue_tracks_pending_bytes(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        assert module.pending_bytes == len(batch) * geometry.tuple_bytes
        assert module.has_work

    def test_processing_drains_pending(self, geometry):
        module, metrics = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        process_all(module)
        assert module.pending_bytes == 0
        assert not module.has_work
        assert metrics.tuples_processed == len(batch)

    def test_occupancy(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        expected = len(batch) * geometry.tuple_bytes / 4096
        assert module.occupancy(4096) == pytest.approx(expected)

    def test_unowned_partition_rejected(self, geometry):
        module, _ = make_module(geometry, npart=4)
        module.extract_partition(2)
        batch = workload_batch(0.0, 4.0)
        with pytest.raises(ProtocolError, match="does not own|it does not own"):
            module.enqueue(Shipment(0, 0.0, 4.0, batch))

    def test_empty_shipment_is_fine(self, geometry):
        module, _ = make_module(geometry)
        from repro.data.tuples import TupleBatch

        module.enqueue(Shipment(0, 0.0, 2.0, TupleBatch.empty()))
        assert not module.has_work


class TestProcessing:
    def test_single_node_matches_oracle(self, geometry):
        module, metrics = make_module(geometry, collect_pairs=True)
        full = []
        for epoch in range(10):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, seed=1)
            full.append(batch)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module, emit_time=(epoch + 1) * 2.0)
        from repro.data.tuples import TupleBatch

        trace = TupleBatch.concat(full)
        expected = naive_window_join(trace, geometry.window_seconds)
        got = (
            np.concatenate(metrics.pair_chunks())
            if metrics.pairs
            else np.empty((0, 2), dtype=np.int64)
        )
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        assert np.array_equal(got, expected)

    def test_window_bytes_grows_then_stabilizes(self, geometry):
        module, _ = make_module(geometry)
        sizes = []
        for epoch in range(30):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, seed=2)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module)
            sizes.append(module.window_bytes)
        # Window = 10 s = 5 epochs: size at epoch 25 ~ size at epoch 29.
        assert sizes[10] > sizes[2]
        assert abs(sizes[-1] - sizes[-3]) < 0.5 * sizes[-1]

    def test_expiry_uses_oldest_pending_timestamp(self, geometry):
        """A late shipment carrying old tuples (post-move) must not be
        preceded by an over-aggressive expiry."""
        module, metrics = make_module(geometry, collect_pairs=True)
        from repro.data.tuples import TupleBatch

        early = TupleBatch.build(ts=[0.0], key=[7], seq=[0], stream=0)
        module.enqueue(Shipment(0, 0.0, 2.0, early))
        process_all(module)
        # A shipment whose epoch_start is recent but carrying an old
        # tuple (window = 10 s, partner at ts=0 still valid for ts=9).
        late = TupleBatch.build(ts=[9.0], key=[7], seq=[100], stream=1)
        module.enqueue(Shipment(5, 9.5, 11.5, late))
        process_all(module)
        got = np.concatenate(metrics.pair_chunks())
        assert got.tolist() == [[0, 100]]

    def test_unsorted_shipment_watermark_uses_true_minimum(self, geometry):
        """Regression: the pending watermark once read ``ts[0]`` instead
        of ``ts.min()``.  A shipment whose *first* tuple is newer than a
        later one (moved-state replays are concatenations, not sorted
        merges) then over-advanced expiry and silently dropped pairs."""
        module, metrics = make_module(geometry, collect_pairs=True)
        from repro.data.tuples import TupleBatch

        partner = TupleBatch.build(ts=[0.2], key=[7], seq=[0], stream=0)
        module.enqueue(Shipment(0, 0.0, 2.0, partner))
        process_all(module)
        # Unsorted batch: first ts is 9.0, true oldest is 0.5.  With a
        # 10 s window the cutoff from ts.min() keeps the ts=0.2 partner
        # alive; a first-element watermark would have expired it.
        jumbled = TupleBatch.build(
            ts=[9.0, 0.5], key=[7, 7], seq=[100, 101], stream=[1, 1]
        )
        assert float(jumbled.ts[0]) > float(jumbled.ts.min())
        module.enqueue(Shipment(5, 9.5, 11.5, jumbled))
        process_all(module)
        got = np.concatenate(metrics.pair_chunks())
        assert sorted(got.tolist()) == [[0, 100], [0, 101]]

    def test_watermark_scans_all_queued_batches(self, geometry):
        """Regression: the pending watermark once read only each queue's
        *head* batch when re-arming after a drain.  A later batch can
        hold older tuples (restore-replay queues a checkpointed
        mini-buffer ahead of logged shipments that overlap it), so a
        head-only watermark over-advanced expiry between passes and
        silently dropped the older batch's pairs."""
        module, metrics = make_module(geometry, collect_pairs=True)
        from repro.data.tuples import TupleBatch

        partner = TupleBatch.build(ts=[0.2], key=[7], seq=[0], stream=0)
        module.enqueue(Shipment(0, 0.0, 2.0, partner))
        process_all(module)
        # Three shipments queued for one partition before any pass runs
        # (at most one batch per partition drains per pass).  After
        # pass 1 pops b1, the queue is [b2, b3]: the head b2 is *newer*
        # than b3, so a head-only watermark (10.5) would set the pass-2
        # cutoff to 0.5 and expire the ts=0.2 partner that b3's ts=0.5
        # stream-1 tuple still joins against.
        b1 = TupleBatch.build(ts=[5.0], key=[7], seq=[10], stream=0)
        b2 = TupleBatch.build(ts=[10.5], key=[7], seq=[20], stream=0)
        b3 = TupleBatch.build(ts=[0.5], key=[7], seq=[101], stream=1)
        module.enqueue(Shipment(5, 11.0, 13.0, b1))
        module.enqueue(Shipment(6, 11.0, 13.0, b2))
        module.enqueue(Shipment(7, 11.0, 13.0, b3))
        process_all(module)
        got = np.concatenate(metrics.pair_chunks())
        # b3 joins every stream-0 tuple within W=10: the partner (0.3 s
        # apart), b1 (4.5 s) and b2 (exactly 10.0 s, inclusive).
        assert sorted(got.tolist()) == [[0, 101], [10, 101], [20, 101]]

    def test_rearm_watermark_after_extract_scans_all_batches(self, geometry):
        """The same all-batches rule applies when a partition move pops
        a mini-buffer and the watermark is re-derived from survivors."""
        from repro.core.hashing import partition_of
        from repro.data.tuples import TupleBatch

        module, _ = make_module(geometry, npart=4)
        pid = int(partition_of(np.array([1]), 4)[0])
        old = TupleBatch.build(ts=[40.0], key=[1], seq=[1], stream=0)
        module.enqueue(Shipment(0, 60.0, 62.0, old))
        # Push a *newer* head in front of it, as restore-replay ordering
        # can: the queue's oldest tuple is now behind the head.
        head = TupleBatch.build(ts=[45.0], key=[1], seq=[9], stream=0)
        module._minibuffers[pid].appendleft(head)
        module._rearm_watermark()
        assert module._oldest_pending_ts == 40.0

    @pytest.mark.parametrize("scan", ["drain", "rearm"])
    def test_enqueue_during_watermark_scan(self, geometry, scan):
        """Regression: on the wall-clock backends the slave's receive
        thread files shipments (``enqueue``) without the state lock, so
        one can land in a mini-buffer while the join pass scans that
        very deque for the watermark.  The scan once raised
        ``RuntimeError: deque mutated during iteration``."""
        from repro.data.tuples import TupleBatch

        module, _ = make_module(geometry, npart=1)
        late = Shipment(
            3, 4.0, 6.0,
            TupleBatch.build(ts=[4.5], key=[2], seq=[30], stream=0),
        )

        class EnqueueOnScan:
            """A queued batch whose timestamp read files *late*, as the
            receive thread may at that instant."""

            fired = False

            @property
            def ts(self):
                if not self.fired:
                    self.fired = True
                    module.enqueue(late)
                return np.array([3.0])

        first = TupleBatch.build(ts=[1.0], key=[1], seq=[1], stream=0)
        module.enqueue(Shipment(0, 0.0, 2.0, first))
        queue = module._minibuffers[0]
        queue.append(EnqueueOnScan())
        if scan == "drain":
            drained = module._drain()
            assert drained[0].ts.tolist() == [1.0]
            assert module._oldest_pending_ts == 3.0
        else:
            module._rearm_watermark()
            assert module._oldest_pending_ts == 1.0
        # The late shipment was filed, behind the scanned batch.
        assert queue[-1].ts.tolist() == [4.5]

    def test_fine_tuning_splits_under_load(self, geometry):
        module, metrics = make_module(geometry, npart=1)
        for epoch in range(5):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, rate=500.0)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module)
        assert metrics.splits > 0
        group = module.groups[0]
        assert group.n_mini_groups > 1

    def test_no_fine_tuning_keeps_single_minigroup(self, geometry):
        geometry = geometry._replace(fine_tuning=False)
        module, metrics = make_module(geometry, npart=1)
        for epoch in range(5):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, rate=500.0)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module)
        assert metrics.splits == 0
        assert module.groups[0].n_mini_groups == 1

    def test_probe_cost_bounded_by_theta_with_tuning(self, geometry):
        """With fine tuning (and subdividable keys) every mini-group
        stays within ~2*theta bytes after maintenance."""
        module, _ = make_module(geometry, npart=1)
        max_scan = 0
        for epoch in range(8):
            batch = workload_batch(
                epoch * 2.0, (epoch + 1) * 2.0, rate=400.0, domain=10_000_001
            )
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            for unit in module.work_units():
                unit.execute((epoch + 1) * 2.0)
            for bucket in module.groups[0].directory.buckets():
                max_scan = max(max_scan, bucket.payload.bytes_used)
        # Sizes measured after maintenance: within 2*theta plus the
        # block-rounding slack of the two streams' head blocks.
        assert max_scan <= 2 * geometry.theta_bytes + 2 * geometry.block_bytes

    def test_hot_key_bucket_stops_splitting(self, geometry):
        """A mini-group holding a single hot key cannot be subdivided;
        the tuning policy must leave it alone instead of blowing up the
        directory depth."""
        from repro.data.tuples import TupleBatch

        module, metrics = make_module(geometry, npart=1)
        n = 200  # far above 2*theta worth of tuples, all the same key
        hot = TupleBatch.build(
            ts=np.linspace(0, 1, n), key=np.full(n, 77), stream=0
        )
        module.enqueue(Shipment(0, 0.0, 1.0, hot))
        process_all(module)
        group = module.groups[0]
        assert group.directory.global_depth <= 1
        assert not group.oversized_buckets()


class TestStateMovement:
    def test_extract_includes_unprocessed_buffer(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        states = {}
        buffered_total = 0
        for pid in list(module.owned_pids()):
            state, buffered = module.extract_partition(pid)
            states[pid] = state
            buffered_total += len(buffered)
        assert buffered_total == len(batch)
        assert module.pending_bytes == 0

    def test_install_then_process_produces_pairs(self, geometry):
        src, src_metrics = make_module(geometry, npart=1, collect_pairs=True)
        batch = workload_batch(0.0, 4.0, rate=300.0, seed=5)
        src.enqueue(Shipment(0, 0.0, 4.0, batch))
        process_all(src)
        n_before = sum(len(p) for p in src_metrics.pair_chunks())

        state, buffered = src.extract_partition(0)
        dst, dst_metrics = make_module(geometry, npart=1, collect_pairs=True)
        dst.extract_partition(0)  # make room
        dst.install_partition(0, state, buffered)

        more = workload_batch(4.0, 8.0, rate=300.0, seed=6)
        dst.enqueue(Shipment(2, 4.0, 8.0, more))
        process_all(dst)
        assert sum(len(p) for p in dst_metrics.pair_chunks()) > 0
        assert n_before >= 0

    def test_double_add_rejected(self, geometry):
        module, _ = make_module(geometry)
        with pytest.raises(ProtocolError):
            module.add_partition(0)

    def test_extract_unowned_rejected(self, geometry):
        module, _ = make_module(geometry, npart=2)
        module.extract_partition(1)
        with pytest.raises(ProtocolError):
            module.extract_partition(1)


class TestCosts:
    def test_costs_accumulate_with_load(self, geometry):
        module, _ = make_module(geometry)
        light = workload_batch(0.0, 2.0, rate=50.0)
        module.enqueue(Shipment(0, 0.0, 2.0, light))
        cheap = process_all(module)

        module2, _ = make_module(geometry)
        heavy = workload_batch(0.0, 2.0, rate=1000.0)
        module2.enqueue(Shipment(0, 0.0, 2.0, heavy))
        costly = process_all(module2)
        assert costly > cheap

    def test_unit_kinds(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0, rate=600.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        kinds = {unit.kind for unit in _run_and_collect(module)}
        assert "expire" in kinds
        assert "probe" in kinds


def _run_and_collect(module):
    units = []
    for unit in module.work_units():
        units.append(unit)
        unit.execute(10.0)
    return units
