"""The Append primitive: tail reservation, ring wrap, multi-writer safety."""

import pytest

from repro import obs
from repro.fabric import BufferedFabric, ImpairedFabric, InlineFabric
from repro.obs.health import PipelineHealth
from repro.primitives import (
    AppendQueryClient,
    AppendReserveError,
    AppendStore,
)


def _with_registry():
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    return registry, lambda: obs.set_registry(previous)


class TestSingleWriter:
    def test_absolute_indexes_are_monotonic(self):
        writer = AppendStore(capacity=8, record_bytes=8).register_writer(0)
        indexes = [writer.append(b"r%d" % i) for i in range(5)]
        assert indexes == [0, 1, 2, 3, 4]

    def test_ring_wrap_keeps_newest_records(self):
        store = AppendStore(capacity=8, record_bytes=8)
        writer = store.register_writer(0)
        records = [i.to_bytes(8, "big") for i in range(14)]
        writer.append_many(records[:6])
        writer.append_many(records[6:])
        snapshot = store.recover()
        assert (snapshot.head, snapshot.tail) == (6, 14)
        assert snapshot.values() == records[6:]
        # 14 appends into capacity 8: the first 6 were overwritten.
        assert writer.c_overwrites.value == 6

    def test_append_and_append_many_interchangeable(self):
        scalar_store = AppendStore(capacity=16, record_bytes=8)
        batch_store = AppendStore(capacity=16, record_bytes=8)
        scalar = scalar_store.register_writer(0)
        batch = batch_store.register_writer(0)
        records = [b"rec-%03d" % i for i in range(10)]
        for record in records:
            scalar.append(record)
        assert batch.append_many(records) == 0  # same first absolute index
        assert scalar_store.records() == batch_store.records()

    def test_oversized_record_rejected(self):
        writer = AppendStore(capacity=8, record_bytes=4).register_writer(0)
        with pytest.raises(ValueError):
            writer.append(b"too-long")

    def test_empty_batch_is_a_noop(self):
        store = AppendStore(capacity=8, record_bytes=8)
        writer = store.register_writer(0)
        assert writer.append_many([]) is None
        assert store.tail() == 0


class TestMultiWriter:
    def test_writers_reserve_disjoint_slots(self):
        store = AppendStore(capacity=64, record_bytes=8)
        writers = [store.register_writer(w) for w in range(3)]
        for round_number in range(5):
            for writer in writers:
                writer.append_many(
                    [b"w%d-%d-%d" % (writer.writer_id, round_number, i)
                     for i in range(3)]
                )
        snapshot = store.recover()
        assert snapshot.tail == 45
        assert len(set(snapshot.values())) == 45  # no slot collisions

    def test_per_writer_insertion_order_survives_interleaving(self):
        """Each writer's records appear in its own submission order."""
        store = AppendStore(capacity=256, record_bytes=8)
        writers = [store.register_writer(w) for w in range(2)]
        expected = {0: [], 1: []}
        for i in range(30):
            writer = writers[i % 2]
            record = b"w%d-%05d" % (writer.writer_id, i)
            expected[writer.writer_id].append(record)
            writer.append(record)
        values = store.recover().values()
        for writer_id, records in expected.items():
            mine = [v for v in values if v.startswith(b"w%d-" % writer_id)]
            assert mine == records


class TestImpairedFabric:
    def test_reservations_retry_through_loss_and_reconcile(self):
        """Lost tail FETCH_ADDs are retried; fabric counters reconcile."""
        registry, restore = _with_registry()
        try:
            # Capacity exceeds the append count so a lost WRITE leaves a
            # zeroed slot rather than a stale record from a previous lap
            # (which would defeat the insertion-order check below).
            fabric = ImpairedFabric(InlineFabric(), loss=0.3, seed=11)
            store = AppendStore(capacity=64, record_bytes=8, fabric=fabric)
            writers = [store.register_writer(w) for w in range(2)]
            expected = {0: [], 1: []}
            for i in range(40):
                writer = writers[i % 2]
                record = b"w%d-%05d" % (writer.writer_id, i)
                expected[writer.writer_id].append(record)
                writer.append(record)

            # Every reservation eventually landed: the tail equals the
            # number of appends even though requests were dropped.
            assert store.tail() == 40
            retries = sum(w.c_reserve_retries.value for w in writers)
            assert retries > 0
            # A retry only ever follows a drop, so the impairment layer
            # must account for at least that many lost frames.
            assert fabric.counters.frames_dropped_loss >= retries

            # Surviving records keep per-writer insertion order (WRITE
            # frames may be lost, so order is checked as a subsequence).
            values = store.recover().values()
            for writer_id, records in expected.items():
                mine = [v for v in values if v.startswith(b"w%d-" % writer_id)]
                iterator = iter(records)
                assert all(record in iterator for record in mine)

            # Cross-layer reconciliation: every atomic the memory saw came
            # through a NIC (no bypass), and the NIC saw exactly what the
            # impairment layer let through.
            health = PipelineHealth.from_registry(registry)
            assert health.atomic_bypass_delta == 0
            assert health.frames_offered - health.frames_lost >= (
                health.nic_frames_received
            )
            assert health.nic_frames_received == health.frames_delivered
        finally:
            restore()

    def test_reserve_gives_up_after_retry_budget(self):
        fabric = ImpairedFabric(InlineFabric(), loss=1.0, seed=3)
        store = AppendStore(capacity=8, record_bytes=8, fabric=fabric)
        writer = store.register_writer(0, max_retries=2)
        with pytest.raises(AppendReserveError):
            writer.append(b"doomed")
        assert writer.c_reserve_retries.value == 2

    def test_buffered_fabric_round_trip(self):
        fabric = BufferedFabric(flush_threshold=4)
        store = AppendStore(capacity=16, record_bytes=8, fabric=fabric)
        writer = store.register_writer(0)
        records = [b"buf-%04d" % i for i in range(10)]
        writer.append_many(records)
        assert store.records() == records


class TestTailFollow:
    def test_first_follow_returns_everything_readable(self):
        store = AppendStore(capacity=8, record_bytes=8)
        writer = store.register_writer(0)
        records = [b"rec-%04d" % i for i in range(5)]
        writer.append_many(records)
        client = AppendQueryClient(store)
        batch = client.follow()
        assert batch is not None
        assert batch.values() == records
        assert (batch.cursor, batch.missed) == (5, 0)
        assert client.cursor == 5

    def test_follow_returns_only_the_delta(self):
        store = AppendStore(capacity=16, record_bytes=8)
        writer = store.register_writer(0)
        writer.append_many([b"old-%04d" % i for i in range(4)])
        client = AppendQueryClient(store)
        client.follow()
        new = [b"new-%04d" % i for i in range(3)]
        writer.append_many(new)
        batch = client.follow()
        assert batch.values() == new
        assert [index for index, _record in batch.records] == [4, 5, 6]
        # Nothing new: an empty batch, cursor parked at the tail.
        assert len(client.follow()) == 0
        assert client.cursor == 7

    def test_lagging_follower_counts_overwritten_records_as_missed(self):
        store = AppendStore(capacity=4, record_bytes=8)
        writer = store.register_writer(0)
        writer.append_many([b"a-%05d" % i for i in range(3)])
        client = AppendQueryClient(store)
        client.follow()  # cursor at 3
        writer.append_many([b"b-%05d" % i for i in range(8)])  # tail 11, head 7
        batch = client.follow()
        assert batch.missed == 4  # absolute indexes 3..6 were lapped
        assert [index for index, _record in batch.records] == [7, 8, 9, 10]
        assert client.c_follow_missed.value == 4

    def test_lost_tail_read_leaves_the_cursor_untouched(self):
        fabric = ImpairedFabric(InlineFabric(), loss=0.0, seed=3)
        store = AppendStore(capacity=8, record_bytes=8, fabric=fabric)
        writer = store.register_writer(0)
        records = [b"rec-%04d" % i for i in range(4)]
        writer.append_many(records)
        client = AppendQueryClient(store)
        fabric.loss = 1.0
        assert client.follow() is None
        assert client.cursor is None
        # Once the wire heals, the next follow picks up from the start.
        fabric.loss = 0.0
        batch = client.follow()
        assert batch is not None and batch.values() == records


class TestRemoteRecovery:
    def test_remote_snapshot_matches_local_recover(self):
        store = AppendStore(capacity=8, record_bytes=8)
        writer = store.register_writer(0)
        writer.append_many([b"rec-%03d" % i for i in range(12)])
        client = AppendQueryClient(store)
        first = client.follow()  # a fresh follower reads the whole window
        local = store.recover()
        assert first is not None and first.missed == 0
        assert first.cursor == local.tail
        assert first.records == local.records
        assert client.tail() == 12
