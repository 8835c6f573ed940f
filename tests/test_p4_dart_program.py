"""Equivalence tests: the P4-IR DART program vs the direct switch model.

The strongest check in the switch substrate: for the same deployment
config, collector fleet and report sequence, the IR program's emitted
frames must be byte-identical to :class:`DartSwitch`'s, and must execute
correctly on the NIC model.
"""

import pytest

from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.collector.collector import CollectorCluster
from repro.hashing.hash_family import stable_key_bytes
from repro.rdma.packets import RoceV2Packet
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.dart_switch import DartSwitch
from repro.switch.p4.dart_program import (
    build_dart_program,
    encode_mirror_packet,
    install_collector_entry,
    ip_to_int,
    mac_to_int,
    process_report,
)


def make_pair(num_collectors=2, redundancy=2, value_bytes=8, switch_id=7):
    """A provisioned (DartSwitch, P4Program, cluster, config) quadruple."""
    config = DartConfig(
        slots_per_collector=1 << 10,
        num_collectors=num_collectors,
        redundancy=redundancy,
        value_bytes=value_bytes,
    )
    cluster = CollectorCluster(config)
    switch = DartSwitch(config, switch_id=switch_id)
    SwitchControlPlane(config).connect_switch(switch, cluster)
    program = build_dart_program(config, switch_id=switch_id)
    for collector in cluster:
        install_collector_entry(program, collector.endpoint_for(switch_id)[0])
    return switch, program, cluster, config


class TestAddressHelpers:
    def test_mac_roundtrip(self):
        assert mac_to_int("02:00:00:00:00:07") == 0x020000000007
        with pytest.raises(ValueError):
            mac_to_int("02:00")

    def test_ip_roundtrip(self):
        assert ip_to_int("10.1.2.3") == 0x0A010203
        with pytest.raises(ValueError):
            ip_to_int("10.1.2")

    def test_mirror_packet_framing(self):
        packet = encode_mirror_packet(b"KEY", b"VALUE")
        assert packet == b"\x00\x03KEYVALUE"
        with pytest.raises(ValueError):
            encode_mirror_packet(b"x" * 70000, b"")


class TestByteEquivalence:
    def test_frames_identical_across_keys_and_copies(self):
        """The core theorem: IR program == direct model, byte for byte."""
        switch, program, _, config = make_pair()
        for i in range(50):
            key = ("flow", i)
            value = i.to_bytes(8, "big")
            direct_frames = switch.report(key, value)
            for copy_index, (collector_id, direct) in enumerate(direct_frames):
                from_ir = process_report(
                    program, stable_key_bytes(key), value, copy_index
                )
                assert from_ir == direct, (i, copy_index)

    def test_equivalence_with_short_values(self):
        """Zero-padding of short values matches the slot codec."""
        switch, program, _, _ = make_pair(value_bytes=8)
        direct = switch.report(b"k", b"ab")
        for copy_index, (_, frame) in enumerate(direct):
            assert process_report(program, b"k", b"ab", copy_index) == frame

    def test_equivalence_across_redundancy(self):
        switch, program, _, _ = make_pair(redundancy=4)
        direct = switch.report(b"key", b"value")
        assert len(direct) == 4
        for copy_index, (_, frame) in enumerate(direct):
            assert process_report(program, b"key", b"value", copy_index) == frame

    def test_psn_sequences_stay_aligned(self):
        """Both PSN register implementations advance identically."""
        switch, program, _, _ = make_pair(num_collectors=1)
        for i in range(20):
            direct = switch.report(("f", i), b"\x00" * 8)
            for copy_index, (_, frame) in enumerate(direct):
                assert (
                    process_report(
                        program, stable_key_bytes(("f", i)), b"\x00" * 8, copy_index
                    )
                    == frame
                )

    def test_different_switch_ids_differ(self):
        _, program_a, _, _ = make_pair(switch_id=1)
        _, program_b, _, _ = make_pair(switch_id=2)
        frame_a = process_report(program_a, b"k", b"v", 0)
        frame_b = process_report(program_b, b"k", b"v", 0)
        assert frame_a != frame_b  # src MAC/IP identify the switch


class TestProgramExecution:
    def test_frames_execute_on_nic(self):
        _, program, cluster, config = make_pair()
        client = DartQueryClient(config, reader=cluster.read_slot)
        for i in range(30):
            key = ("flow", i)
            encoded = stable_key_bytes(key)
            for copy_index in range(config.redundancy):
                frame = process_report(
                    program, encoded, i.to_bytes(8, "big"), copy_index
                )
                packet = RoceV2Packet.unpack(frame)  # validates iCRC
                collector_id = packet.reth.rkey - 0x1000
                assert cluster[collector_id].receive_frame(frame)
        for i in range(30):
            result = client.query(("flow", i))
            assert result.answered
            assert result.value == i.to_bytes(8, "big")

    def test_unprovisioned_collector_leaves_frame_unroutable(self):
        """A missing lookup entry produces a frame whose endpoint fields
        stay zero -- the NIC rejects it (unknown QP), matching the
        direct model's drop-at-switch semantics in effect."""
        config = DartConfig(slots_per_collector=64, num_collectors=1)
        program = build_dart_program(config, switch_id=0)
        frame = process_report(program, b"k", b"v" * 20, 0)
        packet = RoceV2Packet.unpack(frame)
        assert packet.bth.dest_qp == 0
        cluster = CollectorCluster(config)
        assert not cluster[0].receive_frame(frame)

    def test_table_accessor(self):
        _, program, _, _ = make_pair()
        assert len(program.table("collector_lookup")) == 2
        with pytest.raises(KeyError):
            program.table("nonexistent")

    def test_process_phv_exposes_addressing(self):
        switch, program, _, config = make_pair()
        key = ("flow", 9)
        phv = program.process_phv(
            encode_mirror_packet(stable_key_bytes(key), b"\x01" * 8),
            metadata={"copy_index": 1},
        )
        assert phv.get_meta("collector") == switch.addressing.collector_of(key)
        assert phv.get_meta("slot") == switch.addressing.slot_index(key, 1)
        assert phv.get_meta("key_checksum") == switch.addressing.checksum_of(key)
