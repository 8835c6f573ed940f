"""Tests for the software RNIC and queue pairs (repro.rdma.nic, repro.rdma.qp)."""

import numpy as np
import pytest

from repro.mem.region import MemoryRegion
from repro.rdma.frames import FrameBatch
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import (
    AtomicEth,
    Bth,
    Opcode,
    Reth,
    RoceV2Packet,
)
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair, QueuePairState, psn_distance


def make_nic(size=256, base=0x10000, rkey=0x42, qp_number=0x11, policy=PsnPolicy.RESYNC_ON_GAP):
    region = MemoryRegion(size=size, base_address=base, rkey=rkey)
    nic = RdmaNic(region)
    nic.create_queue_pair(QueuePair(qp_number=qp_number, policy=policy))
    return nic, region


def write_packet(payload, psn=0, dest_qp=0x11, va=0x10000, rkey=0x42):
    return RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=dest_qp, psn=psn),
        reth=Reth(virtual_address=va, rkey=rkey, dma_length=len(payload)),
        payload=payload,
    )


class TestPsn:
    def test_distance(self):
        assert psn_distance(0, 0) == 0
        assert psn_distance(0, 5) == 5
        assert psn_distance(5, 0) == PSN_MODULUS - 5
        assert psn_distance(PSN_MODULUS - 1, 0) == 1

    def test_in_order_acceptance(self):
        qp = QueuePair(qp_number=1)
        for psn in range(5):
            assert qp.accept(psn)
        assert qp.accepted == 5
        assert qp.expected_psn == 5

    def test_duplicate_dropped(self):
        qp = QueuePair(qp_number=1)
        assert qp.accept(0)
        assert not qp.accept(0)
        assert qp.duplicates_dropped == 1

    def test_gap_resync_policy(self):
        qp = QueuePair(qp_number=1, policy=PsnPolicy.RESYNC_ON_GAP)
        assert qp.accept(0)
        assert qp.accept(10)  # 1..9 lost; resync
        assert qp.gaps_observed == 1
        assert qp.expected_psn == 11

    def test_gap_strict_policy_errors_qp(self):
        qp = QueuePair(qp_number=1, policy=PsnPolicy.STRICT)
        assert qp.accept(0)
        assert not qp.accept(10)
        assert qp.state is QueuePairState.ERROR
        assert not qp.accept(1)  # QP dead until reset

    def test_ignore_policy_accepts_anything(self):
        qp = QueuePair(qp_number=1, policy=PsnPolicy.IGNORE)
        assert qp.accept(100)
        assert qp.accept(3)
        assert qp.accept(3)

    def test_psn_wraparound(self):
        qp = QueuePair(qp_number=1, expected_psn=PSN_MODULUS - 1)
        assert qp.accept(PSN_MODULUS - 1)
        assert qp.expected_psn == 0
        assert qp.accept(0)

    @pytest.mark.parametrize("start", [10, PSN_MODULUS - 2])
    @pytest.mark.parametrize("policy", [PsnPolicy.RESYNC_ON_GAP, PsnPolicy.STRICT])
    def test_stale_window_splits_duplicates_from_gaps(self, policy, start):
        """The half of PSN space behind the expected PSN is stale, the half
        ahead is a forward gap -- across the 24-bit wrap as well."""
        half = PSN_MODULUS // 2
        for behind in ((start - 1) % PSN_MODULUS, (start + half) % PSN_MODULUS):
            qp = QueuePair(qp_number=1, expected_psn=start, policy=policy)
            assert not qp.accept(behind)
            assert qp.duplicates_dropped == 1
            assert qp.state is QueuePairState.READY
        ahead = (start + half - 1) % PSN_MODULUS
        qp = QueuePair(qp_number=1, expected_psn=start, policy=policy)
        resyncs = policy is PsnPolicy.RESYNC_ON_GAP
        assert qp.accept(ahead) is resyncs
        assert qp.gaps_observed == 1
        if resyncs:
            assert qp.expected_psn == (ahead + 1) % PSN_MODULUS
        else:
            assert qp.state is QueuePairState.ERROR

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QueuePair(qp_number=1 << 24)
        with pytest.raises(ValueError):
            QueuePair(qp_number=1, expected_psn=-1)
        with pytest.raises(ValueError):
            QueuePair(qp_number=1, expected_psn=PSN_MODULUS)


class TestNicWrites:
    def test_write_lands_in_memory(self):
        nic, region = make_nic()
        assert nic.receive_frame(write_packet(b"abcd", psn=0).pack())
        assert region.dma_read(0x10000, 4) == b"abcd"
        assert nic.counters.writes_executed == 1

    def test_uc_write_only_also_supported(self):
        nic, region = make_nic()
        packet = write_packet(b"wxyz", psn=0)
        packet.bth.opcode = int(Opcode.UC_RDMA_WRITE_ONLY)
        assert nic.receive_frame(packet.pack())
        assert region.dma_read(0x10000, 4) == b"wxyz"

    def test_corrupted_frame_dropped_silently(self):
        nic, region = make_nic()
        wire = bytearray(write_packet(b"abcd").pack())
        wire[-6] ^= 0xFF
        assert not nic.receive_frame(bytes(wire))
        assert nic.counters.dropped_decode == 1
        assert region.dma_read(0x10000, 4) == b"\x00" * 4

    def test_unknown_qp_dropped(self):
        nic, _ = make_nic(qp_number=0x11)
        assert not nic.receive_frame(write_packet(b"abcd", dest_qp=0x99).pack())
        assert nic.counters.dropped_unknown_qp == 1

    def test_wrong_rkey_dropped(self):
        nic, region = make_nic(rkey=0x42)
        assert not nic.receive_frame(write_packet(b"abcd", rkey=0x43).pack())
        assert nic.counters.dropped_access == 1
        assert region.dma_read(0x10000, 4) == b"\x00" * 4

    def test_out_of_bounds_write_dropped(self):
        nic, _ = make_nic(size=256, base=0x10000)
        bad = write_packet(b"abcd", va=0x10000 + 255)
        assert not nic.receive_frame(bad.pack())
        assert nic.counters.dropped_access == 1

    def test_duplicate_psn_dropped(self):
        nic, _ = make_nic()
        assert nic.receive_frame(write_packet(b"a", psn=0).pack())
        assert not nic.receive_frame(write_packet(b"b", psn=0).pack())
        assert nic.counters.dropped_psn == 1

    def test_gap_tolerated_by_default(self):
        nic, region = make_nic()
        assert nic.receive_frame(write_packet(b"a", psn=0).pack())
        assert nic.receive_frame(write_packet(b"b", psn=7, va=0x10008).pack())
        assert region.dma_read(0x10008, 1) == b"b"

    def test_dma_length_mismatch_dropped(self):
        nic, _ = make_nic()
        packet = write_packet(b"abcd")
        packet.reth.dma_length = 2  # lies about payload length
        assert not nic.receive_frame(packet.pack())
        assert nic.counters.dropped_decode == 1

    def test_unsupported_opcode_dropped(self):
        nic, _ = make_nic()
        # WRITE_FIRST (multi-packet writes) is not supported by the model.
        packet = RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_FIRST), dest_qp=0x11, psn=0),
            reth=Reth(virtual_address=0x10000, rkey=0x42, dma_length=4),
            payload=b"abcd",
        )
        assert not nic.receive_frame(packet.pack())
        assert nic.counters.dropped_opcode == 1

    def test_read_too_long_for_one_response_is_dropped(self):
        """A well-formed READ whose one response would overflow the 16-bit
        IPv4 total length is dropped before the DMA on both granularities,
        every frame accounted for; the longest that fits is served."""
        longest = 0xFFFF - 20 - 8 - 12 - 4 - 4  # less IPv4, UDP, BTH, AETH, iCRC
        for length, served in ((70_000, False), (longest + 1, False), (longest, True)):
            frames = [
                RoceV2Packet(
                    bth=Bth(opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=0x11, psn=psn),
                    reth=Reth(virtual_address=0x10000, rkey=0x42, dma_length=length),
                ).pack()
                for psn in range(8)
            ]
            for batched in (False, True):
                nic, _ = make_nic(size=393_216)
                if batched:
                    matrix = np.stack([np.frombuffer(f, dtype=np.uint8) for f in frames])
                    nic.ingest_batch(FrameBatch(matrix, np.zeros(8, dtype=np.int64)))
                else:
                    for frame in frames:
                        nic.receive_frame(frame)
                counters = nic.counters
                assert counters.reads_executed == counters.responses_emitted == 8 * served
                assert counters.dropped_opcode == 8 * (not served)
                assert counters.frames_received == counters.reads_executed + counters.frames_dropped
                responses = nic.transmit()
                assert len(responses) == (served and (1 if batched else 8))

    def test_counters_aggregate(self):
        nic, _ = make_nic()
        nic.receive_frame(write_packet(b"a", psn=0).pack())
        nic.receive_frame(write_packet(b"b", psn=0).pack())  # dup
        nic.receive_frame(b"garbage")
        assert nic.counters.frames_received == 3
        assert nic.counters.frames_dropped == 2
        assert nic.counters.writes_executed == 1

    def test_duplicate_qp_rejected(self):
        nic, _ = make_nic(qp_number=0x11)
        with pytest.raises(ValueError):
            nic.create_queue_pair(QueuePair(qp_number=0x11))
        assert nic.queue_pair(0x11) is not None
        assert nic.queue_pair(0x99) is None


class TestNicAtomics:
    def atomic_packet(self, opcode, va=0x10000, swap_add=0, compare=0, psn=0, rkey=0x42):
        return RoceV2Packet(
            bth=Bth(opcode=int(opcode), dest_qp=0x11, psn=psn),
            atomic_eth=AtomicEth(
                virtual_address=va, rkey=rkey, swap_add=swap_add, compare=compare
            ),
        )

    def test_fetch_add(self):
        nic, region = make_nic()
        assert nic.receive_frame(
            self.atomic_packet(Opcode.RC_FETCH_ADD, swap_add=5, psn=0).pack()
        )
        assert nic.receive_frame(
            self.atomic_packet(Opcode.RC_FETCH_ADD, swap_add=3, psn=1).pack()
        )
        assert int.from_bytes(region.dma_read(0x10000, 8), "big") == 8
        assert nic.counters.atomics_executed == 2

    def test_compare_swap_fills_empty_slot_only(self):
        nic, region = make_nic()
        first = self.atomic_packet(Opcode.RC_CMP_SWAP, swap_add=111, compare=0, psn=0)
        second = self.atomic_packet(Opcode.RC_CMP_SWAP, swap_add=222, compare=0, psn=1)
        assert nic.receive_frame(first.pack())
        assert nic.receive_frame(second.pack())  # executes, but CAS fails
        assert int.from_bytes(region.dma_read(0x10000, 8), "big") == 111

    def test_misaligned_atomic_dropped(self):
        nic, _ = make_nic()
        packet = self.atomic_packet(Opcode.RC_FETCH_ADD, va=0x10001, swap_add=1)
        assert not nic.receive_frame(packet.pack())
        assert nic.counters.dropped_access == 1
