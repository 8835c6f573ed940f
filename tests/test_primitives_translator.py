"""Unit tests for the switch-side verb translators and response demux."""

import pytest

from repro.fabric import InlineFabric
from repro.hashing.hash_family import HashFamily
from repro.primitives import (
    KeyIncrementTranslator,
    ResponseDemux,
    SketchMergeTranslator,
)
from repro.rdma.packets import Opcode, RoceV2Packet
from repro.rdma.qp import PSN_MODULUS


class _CaptureFabric:
    """Records every offered frame's exact wire bytes, delivers nothing."""

    def __init__(self):
        self.frames = []

    def send(self, endpoint_id, frame):
        self.frames.append(bytes(frame))
        return True

    def send_batch(self, batch):
        for index in range(batch.count):
            self.frames.append(batch.frames[index].tobytes())
        batch.release()
        return batch.count

    def flush(self):
        return 0


def _translator(fabric, psn=0, rows=2, cells=256):
    return KeyIncrementTranslator(
        fabric,
        0,
        0x200,
        base_address=0x200000,
        rkey=0x77,
        cells_per_row=cells,
        rows=rows,
        family=HashFamily(seed=0),
    )


class TestScalarColumnarParity:
    def test_sketch_merge_scalar_and_columnar_parity(self):
        import numpy as np

        cells = np.arange(32, dtype=np.uint64).reshape(2, 16)
        batch_fabric = _CaptureFabric()
        args = dict(base_address=0x200000, rkey=0x77)
        SketchMergeTranslator(batch_fabric, 0, 0x201, **args).merge(cells)
        # Row for row the per-cell FETCH_ADD stamp of each non-zero cell.
        stamper = SketchMergeTranslator(_CaptureFabric(), 0, 0x201, **args)
        assert batch_fabric.frames == [
            stamper.craft_fetch_add(0x200000 + 8 * cell, addend)
            for cell, addend in enumerate(cells.reshape(-1).tolist())
            if addend
        ]
        # Zero cells cost nothing on the wire: 31 non-zero of 32.
        assert len(batch_fabric.frames) == 31


class TestPsnWraparound:
    def test_craft_add_frames_wraps_at_24_bits(self):
        """PSNs are 24-bit: the frame after 0xFFFFFF carries PSN 0."""
        translator = _translator(_CaptureFabric(), rows=2)
        translator._psn = PSN_MODULUS - 1
        frames = translator.craft_add_frames(("flow", 1), 7)
        psns = [RoceV2Packet.unpack(frame).bth.psn for frame in frames]
        assert psns == [PSN_MODULUS - 1, 0]
        assert translator.psn == 1

    def test_columnar_psn_sequence_wraps_identically(self):
        items = [(("flow", i), 1) for i in range(4)]
        scalar_fabric, batch_fabric = _CaptureFabric(), _CaptureFabric()
        scalar = _translator(scalar_fabric)
        batch = _translator(batch_fabric)
        scalar._psn = PSN_MODULUS - 3
        batch._psn = PSN_MODULUS - 3
        for key, amount in items:
            scalar.increment(key, amount)
        batch.increment_many(items)
        assert batch_fabric.frames == scalar_fabric.frames
        psns = [
            RoceV2Packet.unpack(frame).bth.psn for frame in batch_fabric.frames
        ]
        assert psns == [
            PSN_MODULUS - 3, PSN_MODULUS - 2, PSN_MODULUS - 1, 0, 1, 2, 3, 4,
        ]


class TestZeroAndNegativeAmounts:
    def test_zero_amount_crafts_nothing_and_burns_no_psn(self):
        translator = _translator(_CaptureFabric())
        before = translator.psn
        assert translator.craft_add_frames(("flow", 1), 0) == []
        assert translator.increment(("flow", 1), 0) == 0
        assert translator.psn == before
        assert translator.c_increments.value == 0

    def test_increment_many_skips_zero_amounts(self):
        fabric = _CaptureFabric()
        translator = _translator(fabric, rows=2)
        offered = translator.increment_many(
            [(("flow", 1), 0), (("flow", 2), 5), (("flow", 3), 0)]
        )
        assert offered == 2  # one surviving key x 2 rows
        assert len(fabric.frames) == 2
        assert translator.psn == 2

    def test_negative_amount_rejected(self):
        translator = _translator(_CaptureFabric())
        with pytest.raises(ValueError):
            translator.craft_add_frames(("flow", 1), -1)
        with pytest.raises(ValueError):
            translator.increment_many([(("flow", 1), -2)])


class TestResponseDemux:
    def _ack(self, dest_qp, psn):
        from repro.rdma.packets import Aeth, Bth

        return RoceV2Packet(
            bth=Bth(
                opcode=int(Opcode.RC_ATOMIC_ACKNOWLEDGE),
                dest_qp=dest_qp,
                psn=psn,
            ),
            aeth=Aeth(syndrome=0, msn=1),
            payload=(0).to_bytes(8, "big"),
        ).pack()

    def test_responses_routed_by_destination_qp(self):
        class _Queue:
            def __init__(self, frames):
                self._frames = frames

            def poll(self, endpoint_id):
                frames, self._frames = self._frames, []
                return frames

        fabric = _Queue([self._ack(0x300, 1), self._ack(0x301, 2), b"junk"])
        demux = ResponseDemux()
        assert demux.poll(fabric, 0) == 2  # junk dropped, two filed
        mine = demux.take(0x300)
        assert [p.psn for p in mine] == [1]
        assert [p.psn for p in demux.take(0x301)] == [2]
        # Inboxes drain: a second take is empty.
        assert demux.take(0x300) == []

    def test_poll_against_real_fabric_is_safe_when_idle(self):
        from repro.mem.region import MemoryRegion
        from repro.rdma.nic import RdmaNic

        fabric = InlineFabric()
        fabric.attach(0, RdmaNic(MemoryRegion(size=64)))
        demux = ResponseDemux()
        assert demux.poll(fabric, 0) == 0


class TestDemuxInterleaving:
    """Counter and Append requesters sharing one endpoint's demux.

    ``Fabric.poll`` drains everything queued for an endpoint, so the
    write-side atomic ACKs and the read-side READ responses ride the same
    queue.  These tests interleave writers and one-sided readers on a
    single store and assert nobody consumes anybody else's responses.
    """

    def test_counter_adds_interleave_with_two_query_operators(self):
        from repro.collector.counters import CounterStore
        from repro.primitives import CounterQueryClient

        store = CounterStore(cells_per_row=256, rows=2)
        first = CounterQueryClient(store, operator_id=0)
        second = CounterQueryClient(store, operator_id=1)
        # Writes interleave with estimates from both operators; each
        # client must see only its own READ responses.
        store.add(("flow", 1), 5)
        assert first.estimate(("flow", 1)) == 5
        store.add(("flow", 2), 7)
        store.add(("flow", 1), 3)
        assert second.estimate(("flow", 2)) == 7
        assert first.estimate(("flow", 1)) == 8

    def test_in_flight_read_survives_another_operators_poll(self):
        from repro.collector.counters import CounterStore
        from repro.primitives import CounterQueryClient

        store = CounterStore(cells_per_row=256, rows=2)
        first = CounterQueryClient(store, operator_id=0)
        second = CounterQueryClient(store, operator_id=1)
        store.add(("flow", 1), 5)
        # Put operator 0's READ on the wire without polling for it.
        reader = first.reader
        psn = reader._next_psn()
        reader.fabric.send(
            store.endpoint_id,
            reader._craft_read(store.region.base_address, 8, psn),
        )
        # Operator 1 now drains the endpoint for its own estimate.  The
        # demux must file operator 0's response rather than lose it.
        assert second.estimate(("flow", 1)) == 5
        pending = store.demux.take(reader.qp.qp_number)
        assert [p.psn for p in pending] == [psn]
        assert pending[0].opcode == int(Opcode.RC_RDMA_READ_RESPONSE_ONLY)

    def test_append_writer_interleaves_with_two_followers(self):
        from repro.primitives import AppendQueryClient, AppendStore

        store = AppendStore(capacity=16, record_bytes=8)
        writer = store.register_writer(0)
        first = AppendQueryClient(store, operator_id=0)
        second = AppendQueryClient(store, operator_id=1)
        # The writer *consumes* its FETCH_ADD ACK to learn the reserved
        # slot, so interleaving appends between follows proves the
        # followers' READ responses never starve the reservation path.
        writer.append(b"rec-0000")
        assert first.follow().values() == [b"rec-0000"]
        writer.append(b"rec-0001")
        assert second.follow().values() == [b"rec-0000", b"rec-0001"]
        writer.append(b"rec-0002")
        assert first.follow().values() == [b"rec-0001", b"rec-0002"]
        assert second.follow().values() == [b"rec-0002"]
        # Independent cursors: both operators converged on the same tail.
        assert first.cursor == second.cursor == 3
        assert store.tail() == 3
