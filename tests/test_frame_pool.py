"""Frame-pool ownership tests: reuse without aliasing.

The pool's contract is simple to state and easy to break: a buffer may be
recycled into a later batch *only after* every batch holding a lease on it
has released it.  These tests pin the reuse behaviour (steady-state batch
traffic stops allocating) and the non-aliasing consequence under the
riskiest schedule -- a :class:`BufferedFabric` holding batches in its
queues while the switch keeps encoding new ones, plus an impaired fabric
reordering frames out of their batch's lifetime.
"""

import numpy as np
import pytest

from repro.core.config import DartConfig
from repro.collector.store import DartStore
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.rdma.frames import FrameBatch, FramePool


def small_config(**overrides):
    defaults = dict(slots_per_collector=256, num_collectors=1, seed=3)
    defaults.update(overrides)
    return DartConfig(**defaults)


def make_items(count, tag=0):
    return [
        ((f"10.{tag}.0.{i & 255}", "10.9.9.9", 5000 + i, 80, 6), b"v%d" % i)
        for i in range(count)
    ]


class TestFramePool:
    def test_release_then_acquire_reuses_the_buffer(self):
        pool = FramePool()
        lease, view = pool.acquire(10, 98)
        first_ptr = view.__array_interface__["data"][0]
        assert pool.allocations == 1 and pool.in_flight == 1
        lease.release()
        assert pool.in_flight == 0
        lease2, view2 = pool.acquire(8, 98)
        assert view2.__array_interface__["data"][0] == first_ptr
        assert pool.reuses == 1 and pool.allocations == 1
        lease2.release()

    def test_acquire_while_leased_never_aliases(self):
        pool = FramePool()
        lease_a, view_a = pool.acquire(10, 98)
        lease_b, view_b = pool.acquire(10, 98)
        assert (
            view_a.__array_interface__["data"][0]
            != view_b.__array_interface__["data"][0]
        )
        assert pool.allocations == 2 and pool.in_flight == 2
        lease_a.release()
        lease_b.release()

    def test_select_is_independent_of_the_source_batch(self):
        pool = FramePool()
        lease, view = pool.acquire(4, 16)
        view[:] = np.arange(4, dtype=np.uint8)[:, None]
        batch = FrameBatch(view, np.zeros(4, dtype=np.int64), lease)
        sub = batch.select(np.array([1, 3]))
        batch.frames[:] = 0xEE  # clobber the source after selection
        assert sub.frame_bytes(0) == bytes([1] * 16)
        assert sub.frame_bytes(1) == bytes([3] * 16)
        batch.release()
        # The source buffer went back to the pool, but the sub-batch still
        # owns its own lease: its bytes remain readable and un-aliased.
        lease2, view2 = pool.acquire(4, 16)
        view2[:] = 0x77
        assert sub.frame_bytes(0) == bytes([1] * 16)
        sub.release()
        lease2.release()

    def test_release_is_idempotent(self):
        pool = FramePool()
        lease, view = pool.acquire(2, 8)
        batch = FrameBatch(view, np.zeros(2, dtype=np.int64), lease)
        batch.release()
        batch.release()
        assert pool.in_flight == 0

    def test_retain_keeps_the_buffer_leased(self):
        pool = FramePool()
        lease, view = pool.acquire(2, 8)
        batch = FrameBatch(view, np.zeros(2, dtype=np.int64), lease)
        handle = batch.retain()
        batch.release()
        assert pool.in_flight == 1  # the retained handle still owns it
        handle.release()
        assert pool.in_flight == 0


@pytest.mark.parametrize("ids, groups", [
    ([5, 5, 2, 2, 2, 9], [(5, [0, 1]), (2, [2, 3, 4]), (9, [5])]),  # one run per endpoint
    ([5, 2, 5, 9, 2, 5], [(5, [0, 2, 5]), (2, [1, 4]), (9, [3])]),  # interleaved
    ([7], [(7, [0])]),
    ([], []),
])
def test_groups_yield_each_endpoint_once_in_first_frame_order(ids, groups):
    batch = FrameBatch(np.zeros((len(ids), 4), np.uint8), np.array(ids, dtype=np.int64))
    assert [(endpoint, rows.tolist()) for endpoint, rows in batch.groups()] == groups


class TestNoAliasingUnderBufferedFabric:
    def test_queued_batches_pin_their_buffers(self):
        """While a BufferedFabric holds batches in its queues, the switch
        pool must not hand their buffers to new encodes; after the flush
        the buffers recycle."""
        config = small_config()
        fabric = BufferedFabric(flush_threshold=None)
        store = DartStore(config, packet_level=True, fabric=fabric)
        switch = store._switch
        pool = switch.frame_pool

        switch.report_batch_into(make_items(20, tag=1))
        switch.report_batch_into(make_items(20, tag=2))
        assert fabric.pending() == 80  # 2 batches x 20 reports x N=2
        # Both batches are queued and still lease their buffers.
        assert pool.in_flight == 2
        queued = [
            entry
            for entry in fabric._queues[0]
            if isinstance(entry, FrameBatch)
        ]
        assert len(queued) == 2
        assert queued[0].data_ptr() != queued[1].data_ptr()

        # A third batch encoded while the first two are in flight must get
        # a third buffer, not alias a queued one.
        pinned = {entry.data_ptr() for entry in queued}
        switch.report_batch_into(make_items(20, tag=3))
        third = [
            entry
            for entry in fabric._queues[0]
            if isinstance(entry, FrameBatch)
        ][-1]
        assert third.data_ptr() not in pinned
        assert pool.in_flight == 3 and pool.allocations == 3

        # Flushing delivers and releases every queued batch; the buffers
        # return to the pool and the next encode reuses one.
        fabric.flush()
        assert fabric.pending() == 0
        assert pool.in_flight == 0
        switch.report_batch_into(make_items(20, tag=4))
        fabric.flush()
        assert pool.reuses >= 1
        assert pool.allocations == 3  # steady state: no new buffers

    def test_flushed_bytes_survive_buffer_recycling(self):
        """Frames delivered from a queued batch equal the originally
        encoded bytes even after the pool has recycled buffers many
        times over -- the delivery reads happen before the release."""
        config = small_config()
        inline = InlineFabric()
        buffered = BufferedFabric(flush_threshold=None)
        a = DartStore(config, packet_level=True, fabric=inline)
        b = DartStore(config, packet_level=True, fabric=buffered)
        items = make_items(25)
        for round_tag in range(6):  # several rounds force heavy reuse
            a.put_many(items)
            b.put_many(items)
        assert b._switch.frame_pool.reuses >= 5
        assert (
            a.cluster[0].region.snapshot() == b.cluster[0].region.snapshot()
        )

    def test_reordered_frames_outlive_their_batch(self):
        """A frame held by ImpairedFabric reordering is materialised as
        bytes, so it stays intact after its batch's buffer is recycled
        into later encodes."""
        config = small_config()
        fabric = ImpairedFabric(InlineFabric(), reordering=0.5, seed=9)
        scalar_fabric = ImpairedFabric(InlineFabric(), reordering=0.5, seed=9)
        columnar = DartStore(config, packet_level=True, fabric=fabric)
        scalar = DartStore(config, packet_level=True, fabric=scalar_fabric)
        for round_tag in range(4):
            items = make_items(25, tag=round_tag)
            columnar.put_many(items)
            for key, value in items:
                scalar.put(key, value)
            scalar_fabric.flush()
        fabric.flush()
        scalar_fabric.flush()
        assert fabric.counters.frames_reordered > 0
        assert columnar._switch.frame_pool.reuses >= 1
        assert (
            columnar.cluster[0].region.snapshot()
            == scalar.cluster[0].region.snapshot()
        )
