"""Tests for RDMA READ support and zero-CPU remote queries."""

import pytest

from repro.core.config import DartConfig
from repro.core.policies import QueryOutcome, ReturnPolicy
from repro.core.reporter import DartReporter
from repro.collector.collector import CollectorCluster
from repro.collector.remote_query import RemoteQueryClient
from repro.mem.region import MemoryRegion
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import (
    Aeth,
    Bth,
    Opcode,
    Reth,
    RoceV2Packet,
)
from repro.rdma.qp import PsnPolicy, QueuePair


class TestAeth:
    def test_roundtrip(self):
        aeth = Aeth(syndrome=0x1F, msn=0x123456)
        assert Aeth.unpack(aeth.pack()) == aeth
        assert len(aeth.pack()) == 4

    def test_msn_bounds(self):
        with pytest.raises(ValueError):
            Aeth(msn=1 << 24).pack()

    def test_packet_with_aeth_roundtrips(self):
        packet = RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_RDMA_READ_RESPONSE_ONLY), dest_qp=1, psn=3),
            aeth=Aeth(syndrome=0, msn=7),
            payload=b"slotdata",
        )
        decoded = RoceV2Packet.unpack(packet.pack())
        assert decoded.aeth == Aeth(syndrome=0, msn=7)
        assert decoded.payload == b"slotdata"

    def test_missing_aeth_rejected(self):
        packet = RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_RDMA_READ_RESPONSE_ONLY), dest_qp=1)
        )
        with pytest.raises(ValueError, match="AETH"):
            packet.pack()


class TestNicReads:
    def make_nic(self):
        region = MemoryRegion(size=256, base_address=0x1000, rkey=0x42)
        nic = RdmaNic(region)
        nic.create_queue_pair(QueuePair(qp_number=9, policy=PsnPolicy.IGNORE))
        return nic, region

    def read_request(self, va=0x1000, length=8, rkey=0x42, psn=0):
        return RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=9, psn=psn),
            reth=Reth(virtual_address=va, rkey=rkey, dma_length=length),
        )

    def test_read_returns_memory(self):
        nic, region = self.make_nic()
        region.dma_write(0x1008, b"telemetry")
        assert nic.receive_frame(self.read_request(va=0x1008, length=9).pack())
        responses = nic.transmit()
        assert len(responses) == 1
        response = RoceV2Packet.unpack(responses[0])
        assert response.bth.opcode == Opcode.RC_RDMA_READ_RESPONSE_ONLY
        assert response.payload == b"telemetry"
        assert response.aeth is not None
        assert nic.counters.reads_executed == 1
        assert nic.counters.responses_emitted == 1

    def test_response_echoes_psn(self):
        nic, _ = self.make_nic()
        nic.receive_frame(self.read_request(psn=0x1234).pack())
        response = RoceV2Packet.unpack(nic.transmit()[0])
        assert response.bth.psn == 0x1234

    def test_read_bad_rkey_dropped_silently(self):
        nic, _ = self.make_nic()
        assert not nic.receive_frame(self.read_request(rkey=0x43).pack())
        assert nic.transmit() == []
        assert nic.counters.dropped_access == 1

    def test_read_out_of_bounds_dropped(self):
        nic, _ = self.make_nic()
        assert not nic.receive_frame(self.read_request(va=0x10F9, length=16).pack())
        assert nic.transmit() == []

    def test_transmit_drains(self):
        nic, _ = self.make_nic()
        nic.receive_frame(self.read_request(psn=0).pack())
        nic.receive_frame(self.read_request(psn=1).pack())
        assert len(nic.transmit()) == 2
        assert nic.transmit() == []

    def test_msn_advances(self):
        nic, _ = self.make_nic()
        nic.receive_frame(self.read_request(psn=0).pack())
        nic.receive_frame(self.read_request(psn=1).pack())
        first, second = [RoceV2Packet.unpack(f) for f in nic.transmit()]
        assert second.aeth.msn == first.aeth.msn + 1


class TestRemoteQueryClient:
    def make_deployment(self, **kwargs):
        defaults = dict(
            slots_per_collector=1 << 10, num_collectors=2, value_bytes=8
        )
        defaults.update(kwargs)
        config = DartConfig(**defaults)
        cluster = CollectorCluster(config)
        reporter = DartReporter(config)
        return config, cluster, reporter

    def write(self, cluster, reporter, key, value):
        for write in reporter.writes_for(key, value):
            cluster[write.collector_id].write_slot(write.slot_index, write.payload)

    def test_remote_query_roundtrip(self):
        config, cluster, reporter = self.make_deployment()
        self.write(cluster, reporter, b"flow-1", b"path-abc")
        client = RemoteQueryClient(config, cluster)
        result = client.query(b"flow-1")
        assert result.answered
        assert result.value == b"path-abc"
        assert result.matches == 2
        assert client.read_requests_sent == 2

    def test_remote_matches_local(self):
        """Remote READ-based queries agree with the local query path."""
        from repro.core.client import DartQueryClient

        config, cluster, reporter = self.make_deployment()
        for i in range(100):
            self.write(cluster, reporter, ("f", i), i.to_bytes(8, "big"))
        local = DartQueryClient(config, reader=cluster.read_slot)
        remote = RemoteQueryClient(config, cluster)
        for i in range(100):
            local_result = local.query(("f", i))
            remote_result = remote.query(("f", i))
            assert local_result.answered == remote_result.answered
            assert local_result.value == remote_result.value

    def test_missing_key_empty(self):
        config, cluster, _ = self.make_deployment()
        client = RemoteQueryClient(config, cluster)
        assert client.query(b"nothing").outcome is QueryOutcome.EMPTY
        assert client.query(b"nothing").value is None

    def test_policy_override(self):
        config, cluster, reporter = self.make_deployment()
        self.write(cluster, reporter, b"k", b"v")
        client = RemoteQueryClient(config, cluster, policy=ReturnPolicy.PLURALITY)
        assert client.query(b"k", policy=ReturnPolicy.CONSENSUS_2).answered

    def test_zero_collector_cpu(self):
        """The whole loop never invokes a collector-side slot read."""
        config, cluster, reporter = self.make_deployment(num_collectors=1)
        self.write(cluster, reporter, b"k", b"v")
        client = RemoteQueryClient(config, cluster)
        # Counting local reads: monkey-patch read_slot to detect use.
        calls = []
        original = cluster[0].read_slot
        cluster[0].read_slot = lambda idx: calls.append(idx) or original(idx)
        assert client.query(b"k").answered
        assert calls == []  # queries never touched the local read path

    def test_operator_ids_isolated(self):
        config, cluster, reporter = self.make_deployment()
        self.write(cluster, reporter, b"k", b"v")
        a = RemoteQueryClient(config, cluster, operator_id=1)
        b = RemoteQueryClient(config, cluster, operator_id=2)
        for _ in range(20):  # interleaved: separate QPs, no PSN interference
            assert a.query(b"k").answered
            assert b.query(b"k").answered

    def test_same_operator_id_twice_refused(self):
        """Two stations on one id would share QPs (and, before, silently
        read EMPTY for present keys): the second construction raises."""
        config, cluster, _ = self.make_deployment()
        RemoteQueryClient(config, cluster)
        with pytest.raises(ValueError, match="already exists"):
            RemoteQueryClient(config, cluster)

    def test_invalid_operator_id(self):
        config, cluster, _ = self.make_deployment()
        with pytest.raises(ValueError):
            RemoteQueryClient(config, cluster, operator_id=-1)


class TestLossyRemoteQueries:
    """The operator side is a reliable requester: retries recover loss."""

    def make(self, loss_probability, max_retries):
        from repro.fabric import ImpairedFabric, InlineFabric

        config = DartConfig(
            slots_per_collector=1 << 10, num_collectors=1, value_bytes=8
        )
        cluster = CollectorCluster(config)
        reporter = DartReporter(config)
        for i in range(100):
            for write in reporter.writes_for(("f", i), i.to_bytes(8, "big")):
                cluster[write.collector_id].write_slot(
                    write.slot_index, write.payload
                )
        fabric = ImpairedFabric(
            cluster.attach_to(InlineFabric()),
            loss=loss_probability,
            seed=3,
        )
        return RemoteQueryClient(
            config, cluster, max_retries=max_retries, fabric=fabric
        )

    def test_no_retries_loss_degrades_queries(self):
        client = self.make(loss_probability=0.4, max_retries=0)
        answered = sum(client.query(("f", i)).answered for i in range(100))
        assert answered < 95  # loss visibly hurts

    def test_retries_recover_lost_reads(self):
        # Per attempt the request leg must survive (0.6); with 9 attempts
        # a slot read fails with prob 0.4^9 ~ 0.03%, and a query needs
        # just one of its two slot reads.
        client = self.make(loss_probability=0.4, max_retries=8)
        answered = sum(client.query(("f", i)).answered for i in range(100))
        assert answered >= 99
        assert client.retries_performed > 0

    def test_retry_validation(self):
        config = DartConfig(slots_per_collector=64, num_collectors=1)
        cluster = CollectorCluster(config)
        with pytest.raises(ValueError):
            RemoteQueryClient(config, cluster, max_retries=-1)
