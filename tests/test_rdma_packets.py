"""Tests for RoCEv2 wire-format codecs (repro.rdma.packets) and the layout
they share with every batch encoder (repro.rdma.layout)."""

import dataclasses
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.collector import CollectorEndpoint
from repro.core.config import DartConfig
from repro.mem.region import MemoryRegion
from repro.primitives.translator import PrimitiveTranslator, ResponseDemux
from repro.rdma import frames, layout, nic as nic_module, packets, packets as live
from repro.rdma.frames import _ICRC_SEED
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import (
    ROCEV2_UDP_PORT,
    Aeth,
    AtomicEth,
    Bth,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    PacketDecodeError,
    Reth,
    RoceV2Packet,
    UdpHeader,
    compute_icrc,
    internet_checksum,
    opcode_has_atomic_eth,
    opcode_has_reth,
)
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair
from repro.switch.dart_switch import DartSwitch

from . import reference_codec as reference
from .rigs import (
    RESERVED7_BITS,
    RESERVED7_BYTE,
    TVER_BITS,
    TVER_BYTE,
    RecordingFabric,
    ips,
    macs,
    make_reader,
    restamp_icrc,
)

def make_write_packet(payload=b"\x01" * 24, psn=0, dest_qp=0x11, va=0x10000, rkey=0x42):
    return RoceV2Packet(
        eth=EthernetHeader(dst_mac="02:00:00:00:00:01", src_mac="02:00:00:00:00:02"),
        ipv4=Ipv4Header(src_ip="10.0.0.2", dst_ip="10.0.0.1"),
        udp=UdpHeader(src_port=49152),
        bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=dest_qp, psn=psn),
        reth=Reth(virtual_address=va, rkey=rkey, dma_length=len(payload)),
        payload=payload,
    )


class TestHeaderCodecs:
    def test_ethernet_roundtrip(self):
        header = EthernetHeader(dst_mac="aa:bb:cc:dd:ee:ff", src_mac="11:22:33:44:55:66")
        decoded = EthernetHeader.unpack(header.pack())
        assert decoded == header

    def test_ethernet_truncated(self):
        with pytest.raises(PacketDecodeError):
            EthernetHeader.unpack(b"\x00" * 13)

    def test_ipv4_roundtrip(self):
        header = Ipv4Header(src_ip="192.168.1.2", dst_ip="10.0.0.1", total_length=100, ttl=17)
        decoded = Ipv4Header.unpack(header.pack())
        assert decoded.src_ip == "192.168.1.2"
        assert decoded.dst_ip == "10.0.0.1"
        assert decoded.total_length == 100
        assert decoded.ttl == 17

    def test_ipv4_checksum_valid(self):
        packed = Ipv4Header(src_ip="1.2.3.4", dst_ip="5.6.7.8", total_length=40).pack()
        assert internet_checksum(packed) == 0

    def test_ipv4_rejects_options(self):
        bad = bytearray(Ipv4Header().pack())
        bad[0] = 0x46  # IHL = 6 words
        with pytest.raises(PacketDecodeError):
            Ipv4Header.unpack(bytes(bad))

    def test_udp_roundtrip(self):
        header = UdpHeader(src_port=1234, length=64)
        decoded = UdpHeader.unpack(header.pack())
        assert decoded == header
        assert decoded.dst_port == ROCEV2_UDP_PORT

    def test_bth_roundtrip(self):
        header = Bth(
            opcode=int(Opcode.RC_FETCH_ADD),
            solicited=True,
            pad_count=2,
            dest_qp=0xABCDEF,
            ack_request=True,
            psn=0x123456,
        )
        decoded = Bth.unpack(header.pack())
        assert decoded == header

    def test_bth_field_limits(self):
        with pytest.raises(ValueError):
            Bth(dest_qp=1 << 24).pack()
        with pytest.raises(ValueError):
            Bth(psn=1 << 24).pack()

    def test_bth_length(self):
        assert len(Bth().pack()) == Bth.LENGTH == 12

    def test_reth_roundtrip(self):
        header = Reth(virtual_address=0xDEADBEEF00, rkey=0x1234, dma_length=24)
        assert Reth.unpack(header.pack()) == header
        assert len(header.pack()) == 16

    def test_atomic_eth_roundtrip(self):
        header = AtomicEth(
            virtual_address=0x10000, rkey=0x42, swap_add=7, compare=2**63
        )
        assert AtomicEth.unpack(header.pack()) == header
        assert len(header.pack()) == 28

    def test_opcode_extension_header_map(self):
        assert opcode_has_reth(Opcode.RC_RDMA_WRITE_ONLY)
        assert opcode_has_reth(Opcode.UC_RDMA_WRITE_ONLY)
        assert not opcode_has_reth(Opcode.RC_FETCH_ADD)
        assert opcode_has_atomic_eth(Opcode.RC_CMP_SWAP)
        assert opcode_has_atomic_eth(Opcode.RC_FETCH_ADD)
        assert not opcode_has_atomic_eth(Opcode.RC_RDMA_WRITE_ONLY)


class TestFullPacket:
    def test_write_packet_roundtrip(self):
        packet = make_write_packet(payload=b"telemetry-value-data-123")
        wire = packet.pack()
        decoded = RoceV2Packet.unpack(wire)
        assert decoded.bth.opcode == Opcode.RC_RDMA_WRITE_ONLY
        assert decoded.reth.virtual_address == 0x10000
        assert decoded.reth.rkey == 0x42
        assert decoded.payload == b"telemetry-value-data-123"

    def test_lengths_filled_in(self):
        packet = make_write_packet(payload=b"x" * 10)
        wire = packet.pack()
        decoded = RoceV2Packet.unpack(wire)
        # Eth(14) + IP(20) + UDP(8) + BTH(12) + RETH(16) + 10 + iCRC(4)
        assert len(wire) == 84
        assert decoded.ipv4.total_length == 70
        assert decoded.udp.length == 50

    def test_atomic_packet_roundtrip(self):
        packet = RoceV2Packet(
            bth=Bth(opcode=int(Opcode.RC_CMP_SWAP), dest_qp=1, psn=9),
            atomic_eth=AtomicEth(
                virtual_address=0x10008, rkey=0x42, swap_add=111, compare=0
            ),
        )
        decoded = RoceV2Packet.unpack(packet.pack())
        assert decoded.atomic_eth.swap_add == 111
        assert decoded.atomic_eth.compare == 0
        assert decoded.payload == b""

    def test_missing_extension_header_rejected(self):
        packet = RoceV2Packet(bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY)))
        with pytest.raises(ValueError):
            packet.pack()

    def test_icrc_corruption_detected(self):
        wire = bytearray(make_write_packet().pack())
        wire[-10] ^= 0x01  # flip a payload bit
        with pytest.raises(PacketDecodeError, match="iCRC"):
            RoceV2Packet.unpack(bytes(wire))

    def test_icrc_invariant_to_ttl_change(self):
        """Routers decrement TTL in flight; the iCRC must not break."""
        packet = make_write_packet()
        wire = bytearray(packet.pack())
        original = RoceV2Packet.unpack(bytes(wire))
        # Decrement TTL and fix the IP header checksum, as a router would.
        ttl_offset = 14 + 8
        wire[ttl_offset] -= 1
        rebuilt_ip = Ipv4Header.unpack(bytes(wire[14:34])).pack()
        wire[14:34] = rebuilt_ip
        rerouted = RoceV2Packet.unpack(bytes(wire))
        assert rerouted.payload == original.payload

    def test_icrc_validation_can_be_disabled(self):
        wire = bytearray(make_write_packet().pack())
        wire[-10] ^= 0x01
        decoded = RoceV2Packet.unpack(bytes(wire), validate_icrc=False)
        assert decoded.bth.opcode == Opcode.RC_RDMA_WRITE_ONLY

    def test_non_ipv4_rejected(self):
        wire = bytearray(make_write_packet().pack())
        wire[12:14] = struct.pack(">H", 0x86DD)  # IPv6 ethertype
        with pytest.raises(PacketDecodeError, match="IPv4"):
            RoceV2Packet.unpack(bytes(wire))

    def test_non_rocev2_port_rejected(self):
        packet = make_write_packet()
        packet.udp.dst_port = 4792
        # Bypass pack()'s defaulting by rebuilding manually.
        wire = packet.pack()
        with pytest.raises(PacketDecodeError, match="RoCEv2"):
            RoceV2Packet.unpack(wire)

    def test_truncated_frame_rejected(self):
        wire = make_write_packet().pack()
        with pytest.raises(PacketDecodeError):
            RoceV2Packet.unpack(wire[:-8])

    @given(payload=st.binary(min_size=0, max_size=64), psn=st.integers(0, 2**24 - 1))
    def test_roundtrip_property(self, payload, psn):
        packet = make_write_packet(payload=payload, psn=psn)
        decoded = RoceV2Packet.unpack(packet.pack())
        assert decoded.payload == payload
        assert decoded.bth.psn == psn

    def test_icrc_depends_on_payload(self):
        a = compute_icrc(Ipv4Header(), UdpHeader(), Bth(), b"aaaa")
        b = compute_icrc(Ipv4Header(), UdpHeader(), Bth(), b"aaab")
        assert a != b

    def test_wire_length_property(self):
        packet = make_write_packet(payload=b"x" * 24)
        assert packet.wire_length == len(packet.pack())


# ---------------------------------------------------------------------------
# The layout is written down once: derived constants against literal
# expectations and the bytes the frozen ``tests/reference_codec.py`` packs
# ---------------------------------------------------------------------------

HEADER_SIZES = {
    "eth": 14, "ipv4": 20, "udp": 8, "bth": 12,
    "reth": 16, "atomic_eth": 28, "aeth": 4, "icrc": 4,
}

STRUCT_FORMATS = {
    "_ETH": ">6s6sH", "_IPV4": ">BBHHHBBH4s4s", "_UDP": ">HHHH",
    "_BTH": ">BBHB3sB3s", "_RETH": ">QII", "_ATOMIC_ETH": ">QIQQ",
    "_AETH": ">B3s", "_ICRC": "<I",
}

FRAME_CONSTANTS = {
    "ETH_OFF": 0, "IP_OFF": 14, "UDP_OFF": 34, "BTH_OFF": 42,
    "RETH_OFF": 54, "PAYLOAD_OFF": 70, "OVERHEAD_BYTES": 74,
    "ATOMIC_ETH_OFF": 54, "ATOMIC_FRAME_BYTES": 86, "READ_REQUEST_BYTES": 74,
    "AETH_OFF": 54, "RESPONSE_PAYLOAD_OFF": 58,
    "OPCODE_OFF": 42, "DEST_QP_OFF": 47, "PSN_OFF": 50,
    "ICRC_BYTES": 4, "ICRC_PREFIX_BYTES": 8,
}


def test_header_sizes_and_struct_formats():
    assert {header.name: header.size for header in layout.HEADERS} == HEADER_SIZES
    for name, expected in STRUCT_FORMATS.items():
        assert getattr(packets, name).format == expected, name
    for live, oracle in (
        (packets.EthernetHeader, reference.EthernetHeader),
        (packets.Ipv4Header, reference.Ipv4Header),
        (packets.UdpHeader, reference.UdpHeader),
        (packets.Bth, reference.Bth),
        (packets.Reth, reference.Reth),
        (packets.AtomicEth, reference.AtomicEth),
        (packets.Aeth, reference.Aeth),
    ):
        assert live.LENGTH == oracle.LENGTH


def test_every_public_frame_constant():
    """The table covers every ``*_OFF`` / ``*_BYTES`` name ``frames`` has."""
    exported = {
        name: value
        for name, value in vars(frames).items()
        if name.isupper() and name.endswith(("_OFF", "_BYTES"))
    }
    assert exported == FRAME_CONSTANTS
    assert frames.frame_width(24) == 98


def test_mask_and_column_sets():
    assert layout.ICRC_MASKED_COLUMNS == (9, 16, 18, 19, 34, 35, 40)
    assert frames._MASKED_COLUMNS.tolist() == [9, 16, 18, 19, 34, 35, 40]
    # The header plan's key: ethertype, version/IHL, total length, protocol,
    # UDP dst port, opcode, QP -- never the UDP src port (34, 35) or the PSN.
    plan_key = [12, 13, 14, 16, 17, 23, 36, 37, 42, 47, 48, 49]
    assert layout.columns(*packets.PLAN_FIELDS) == plan_key
    # Read with the masked fields (DSCP/ECN, TTL, both checksums, resv8a),
    # which fix the iCRC check's constant, in wire order.
    assert packets._PLAN_KEY.unpack_from(bytes(range(50))) == (
        0x0C0D, 14, 15, 0x1011, 22, 23, 0x1819, 0x2425, 0x2829, 42, 46, bytes([47, 48, 49]),
    )
    uniform = {opcode: cols.tolist() for opcode, cols in nic_module._UNIFORM_COLUMNS.items()}
    assert uniform == {
        packets.Opcode.RC_RDMA_WRITE_ONLY: [*plan_key, *range(62, 70)],
        packets.Opcode.RC_FETCH_ADD: [*plan_key, *range(62, 66)],
        packets.Opcode.RC_RDMA_READ_REQUEST: [
            *plan_key, *range(62, 70), *range(6, 12), *range(26, 30), 34, 35,
        ],
    }
    # RETH and AtomicETH open alike: the NIC validates both through one read.
    for field in ("virtual_address", "rkey"):
        assert layout.span(f"reth.{field}") == layout.span(f"atomic_eth.{field}")


#: One oracle packet per extension header, every field a distinct value.
_COMMON = dict(
    eth=reference.EthernetHeader(dst_mac="02:11:22:33:44:55", src_mac="02:66:77:88:99:aa"),
    ipv4=reference.Ipv4Header(
        src_ip="10.1.2.3", dst_ip="172.16.5.6", ttl=61, dscp_ecn=0x2E,
        identification=0xBEEF, flags_fragment=0x4000,
    ),
    udp=reference.UdpHeader(src_port=0xC123, checksum=0x0A0B),
)
_COMMON_FIELDS = {
    "eth.dst_mac": 0x021122334455, "eth.src_mac": 0x0266778899AA,
    "eth.ethertype": 0x0800, "ipv4.version_ihl": 0x45, "ipv4.dscp_ecn": 0x2E,
    "ipv4.identification": 0xBEEF, "ipv4.flags_fragment": 0x4000,
    "ipv4.ttl": 61, "ipv4.protocol": 17, "ipv4.src_ip": 0x0A010203,
    "ipv4.dst_ip": 0xAC100506, "udp.src_port": 0xC123, "udp.dst_port": 4791,
    "udp.checksum": 0x0A0B, "bth.flags": 0xE0, "bth.partition_key": 0xABCD,
    "bth.resv8a": 0, "bth.dest_qp": 0x123456, "bth.ack_request": 0x80,
    "bth.psn": 0xFEDCBA,
}


def _bth(opcode):
    return reference.Bth(
        opcode=int(opcode), solicited=True, mig_req=True, pad_count=2,
        partition_key=0xABCD, dest_qp=0x123456, ack_request=True, psn=0xFEDCBA,
    )


FIELD_CASES = [
    (
        reference.RoceV2Packet(
            bth=_bth(Opcode.RC_RDMA_WRITE_ONLY), payload=b"payload!",
            reth=reference.Reth(0x0102030405060708, 0xCAFEF00D, 8), **_COMMON,
        ),
        {"bth.opcode": 0x0A, "reth.virtual_address": 0x0102030405060708,
         "reth.rkey": 0xCAFEF00D, "reth.dma_length": 8},
    ),
    (
        reference.RoceV2Packet(
            bth=_bth(Opcode.RC_CMP_SWAP),
            atomic_eth=reference.AtomicEth(
                0x1112131415161718, 0x0BADCAFE, 0x2122232425262728, 0x3132333435363738
            ),
            **_COMMON,
        ),
        {"bth.opcode": 0x13, "atomic_eth.virtual_address": 0x1112131415161718,
         "atomic_eth.rkey": 0x0BADCAFE, "atomic_eth.swap_add": 0x2122232425262728,
         "atomic_eth.compare": 0x3132333435363738},
    ),
    (
        reference.RoceV2Packet(
            bth=_bth(Opcode.RC_RDMA_READ_RESPONSE_ONLY), payload=b"answer",
            aeth=reference.Aeth(syndrome=0x5A, msn=0x0A0B0C), **_COMMON,
        ),
        {"bth.opcode": 0x10, "aeth.syndrome": 0x5A, "aeth.msn": 0x0A0B0C},
    ),
]


@pytest.mark.parametrize("packet, extension", FIELD_CASES)
def test_named_fields_sit_where_the_oracle_packs_them(packet, extension):
    wire = packet.pack()
    total_length = len(wire) - 14
    expected = dict(
        _COMMON_FIELDS, **extension,
        **{"ipv4.total_length": total_length, "udp.length": total_length - 20},
    )
    for name, value in expected.items():
        start, stop = layout.span(name)
        assert int.from_bytes(wire[start:stop], "big") == value, name
    start, stop = layout.span("ipv4.checksum")
    header = bytearray(wire[14:34])
    header[10:12] = b"\x00\x00"
    assert int.from_bytes(wire[start:stop], "big") == reference.internet_checksum(bytes(header))
    # ... and the batch reader and writer agree with those spans.
    matrix = np.frombuffer(wire, dtype=np.uint8).reshape(1, -1).copy()
    blank = np.zeros_like(matrix)
    for name, value in expected.items():
        assert int(frames.read_field(matrix, name)[0]) == value, name
        frames.write_field(blank, name, np.array([value], dtype=np.uint64))
    covered = sorted(layout.columns(*expected))
    assert (blank[0, covered] == matrix[0, covered]).all()
    assert packets.ICRC.struct.unpack(wire[-4:])[0] == reference.compute_icrc(
        packet.ipv4, packet.udp, packet.bth, packet._after_bth()
    )


# ---------------------------------------------------------------------------
# The live codecs against the frozen oracle: identical frames, fields,
# verdicts and error text, except that the oracle treated the bits no header
# dataclass models (``rigs.TVER_BYTE``, ``rigs.RESERVED7_BYTE``) as zero where
# the live decoder checksums them as received, the RoCEv2 annex's rule.
# ---------------------------------------------------------------------------

HEADER_CLASSES = ("EthernetHeader", "Ipv4Header", "UdpHeader", "Bth", "Reth", "AtomicEth", "Aeth")


def to_reference(packet: live.RoceV2Packet) -> reference.RoceV2Packet:
    """The same packet built from the oracle's dataclasses."""
    fields = {}
    for item in dataclasses.fields(packet):
        value = getattr(packet, item.name)
        if type(value).__name__ in HEADER_CLASSES:
            value = getattr(reference, type(value).__name__)(**dataclasses.asdict(value))
        fields[item.name] = value
    return reference.RoceV2Packet(**fields)


def outcome(module, wire: bytes, validate_icrc: bool = True):
    """What ``unpack`` did with ``wire``: the decoded fields, or the error text."""
    try:
        packet = module.RoceV2Packet.unpack(wire, validate_icrc=validate_icrc)
    except module.PacketDecodeError as error:
        return ("rejected", str(error))
    return ("accepted", dataclasses.asdict(packet))


def unmodelled_bits(wire: bytes) -> bool:
    """Whether ``wire`` sets a bit the header dataclasses drop."""
    return len(wire) > RESERVED7_BYTE and bool(
        wire[TVER_BYTE] & TVER_BITS or wire[RESERVED7_BYTE] & RESERVED7_BITS
    )


def without_unmodelled_bits(wire: bytes) -> bytes:
    cleared = bytearray(wire)
    cleared[TVER_BYTE] &= ~TVER_BITS & 0xFF
    cleared[RESERVED7_BYTE] &= ~RESERVED7_BITS & 0xFF
    return bytes(cleared)



u8, u16, u24 = (st.integers(0, (1 << bits) - 1) for bits in (8, 16, 24))
u32, u64 = st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 64) - 1)


@st.composite
def any_packets(draw) -> live.RoceV2Packet:
    """Any of the eleven opcodes with the extension header it requires."""
    opcode = draw(st.sampled_from(list(Opcode)))
    return live.RoceV2Packet(
        eth=live.EthernetHeader(dst_mac=draw(macs), src_mac=draw(macs)),
        ipv4=live.Ipv4Header(
            src_ip=draw(ips), dst_ip=draw(ips), ttl=draw(u8), dscp_ecn=draw(u8),
            identification=draw(u16), flags_fragment=draw(u16),
        ),
        udp=live.UdpHeader(src_port=draw(u16), checksum=draw(u16)),
        bth=live.Bth(
            opcode=int(opcode), solicited=draw(st.booleans()), mig_req=draw(st.booleans()),
            pad_count=draw(st.integers(0, 3)), partition_key=draw(u16), dest_qp=draw(u24),
            ack_request=draw(st.booleans()), psn=draw(u24),
        ),
        reth=live.Reth(draw(u64), draw(u32), draw(u32)) if live.opcode_has_reth(opcode) else None,
        atomic_eth=(
            live.AtomicEth(draw(u64), draw(u32), draw(u64), draw(u64))
            if live.opcode_has_atomic_eth(opcode) else None
        ),
        aeth=live.Aeth(draw(u8), draw(u24)) if live.opcode_has_aeth(opcode) else None,
        payload=draw(st.binary(max_size=64)),
    )


@st.composite
def damage(draw, wire: bytes) -> bytes:
    """0-3 bit flips (a third aimed at the unmodelled bits), an optional
    iCRC restamp so damaged frames also reach the accept path, then
    optional truncation or trailing padding."""
    mutated = bytearray(wire)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 2)) == 0:
            byte = draw(st.sampled_from([TVER_BYTE, RESERVED7_BYTE]))
            bit = draw(st.integers(0, 3 if byte == TVER_BYTE else 6))
        else:
            byte, bit = draw(st.integers(0, len(wire) - 1)), draw(st.integers(0, 7))
        mutated[byte] ^= 1 << bit
    mutated = bytes(mutated)
    if draw(st.booleans()):
        mutated = restamp_icrc(mutated)
    shape = draw(st.sampled_from(["whole", "whole", "truncated", "padded"]))
    if shape == "truncated":
        mutated = mutated[: draw(st.integers(0, len(mutated) - 1))]
    elif shape == "padded":
        mutated += draw(st.binary(min_size=1, max_size=8))
    return mutated


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_live_codecs_match_the_reference(data):
    packet = data.draw(any_packets())
    oracle = to_reference(packet)

    wire = packet.pack()
    assert wire == oracle.pack()
    # pack() stamps the lengths it computed into the headers.
    assert (packet.udp.length, packet.ipv4.total_length) == (
        oracle.udp.length, oracle.ipv4.total_length,
    )
    assert packet.wire_length == len(wire)
    assert live.compute_icrc(
        packet.ipv4, packet.udp, packet.bth, packet._after_bth()
    ) == reference.compute_icrc(oracle.ipv4, oracle.udp, oracle.bth, oracle._after_bth())
    assert outcome(live, wire) == outcome(reference, wire) == (
        "accepted", dataclasses.asdict(packet),
    )

    received = data.draw(damage(wire))
    assert outcome(live, received, validate_icrc=False) == outcome(
        reference, received, validate_icrc=False
    )
    if not unmodelled_bits(received):
        assert outcome(live, received) == outcome(reference, received)
    else:
        # The oracle's verdict on these bytes is the live verdict on the
        # same bytes with the unmodelled bits cleared -- the whole of the
        # difference, error text included.
        assert outcome(reference, received) == outcome(live, without_unmodelled_bits(received))


def plan_decode(wire: bytes):
    """What the NIC and the demux read of ``wire`` through its one-pass
    decode: None if rejected, else ``(opcode, dest_qp, psn, request fields,
    payload)``."""
    decoded = live.decode_frame(wire)
    if decoded is None:
        return None
    opcode, dest_qp, psn, (_psn, *fields), payload = decoded
    return opcode, dest_qp, psn, tuple(fields), payload


def reference_decode(wire: bytes):
    """The same, read off the oracle's ``unpack``."""
    try:
        packet = reference.RoceV2Packet.unpack(wire)
    except reference.PacketDecodeError:
        return None
    request = packet.reth or packet.atomic_eth
    fields = dataclasses.astuple(request) if request is not None else ()
    return packet.bth.opcode, packet.bth.dest_qp, packet.bth.psn, fields, packet.payload


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_plan_decode_matches_the_reference(data):
    """Accept/reject, opcode, QP, PSN, address, rkey, length (or addend and
    compare) and payload: the plan decode is the oracle's ``unpack``, on a
    memo miss and on the hit after it."""
    wire = data.draw(any_packets()).pack()
    assert plan_decode(wire) == reference_decode(wire) is not None
    received = data.draw(damage(wire))
    # As above, the oracle's verdict on unmodelled bits is the live verdict
    # with them cleared.
    live_view = without_unmodelled_bits(received) if unmodelled_bits(received) else received
    assert plan_decode(live_view) == plan_decode(live_view) == reference_decode(received)


@given(head=st.binary(max_size=96), tail=st.binary(max_size=96))
def test_zlib_crc32_is_the_table_loop(head, tail):
    """The live iCRC's CRC-32 (``zlib.crc32``) is the Rocksoft table loop,
    chaining included -- the rule ``icrc_rows`` seeds every row by."""
    crc32 = reference._CRC32_PARAMETERS
    whole = reference.table_crc(crc32, head + tail)
    assert zlib.crc32(head + tail) == zlib.crc32(bytearray(head + tail)) == whole
    assert zlib.crc32(tail, zlib.crc32(head)) == whole
    assert reference.table_crc(crc32, tail, reference.table_crc(crc32, head)) == whole
    assert _ICRC_SEED == reference.crc32(b"\xff" * layout.ICRC_PREFIX_BYTES)


@pytest.mark.parametrize(
    "data, crc",
    [(b"123456789", 0xCBF43926), (b"", 0), (b"a", 0xE8B7BE43), (b"abc", 0x352441C2),
     (b"hello world", 0x0D4A1185)],
)
def test_crc32_check_values(data, crc):
    """The catalogue check value and zlib's vectors, by both computations."""
    assert zlib.crc32(data) == reference.crc32(data) == crc


def report_frame() -> bytes:
    switch = DartSwitch(DartConfig(slots_per_collector=64, num_collectors=1), switch_id=7)
    switch.install_collector(
        0, CollectorEndpoint(0, "02:00:00:00:00:01", "10.0.0.1", 0x11, 0x42, 0x10000)
    )
    return switch.report(("flow", 1), b"v" * 20)[0][1]


#: The WRITE :func:`report_frame` crafts (to QP 0x11 of region
#: [0x10000, +4096) under rkey 0x42), and what the NIC executing it holds.
WRITE = report_frame()
WRITE_QP, WRITE_RKEY, WRITE_BASE = 0x11, 0x42, 0x10000
MASKED_FIELDS = layout.ICRC_MASKED_FIELDS
_write_masked = layout.writer(*MASKED_FIELDS)


def write_nic():
    nic = RdmaNic(MemoryRegion(4096, base_address=WRITE_BASE, rkey=WRITE_RKEY))
    nic.create_queue_pair(QueuePair(qp_number=WRITE_QP, policy=PsnPolicy.IGNORE))
    return nic


def with_masked(wire: bytes, values) -> bytes:
    frame = bytearray(wire)
    _write_masked(frame, values)
    return bytes(frame)


masked_values = st.tuples(*(
    st.integers(0, (1 << 8 * (layout.span(name)[1] - layout.span(name)[0])) - 1)
    for name in MASKED_FIELDS
))


@settings(max_examples=200, deadline=None)
@given(values=masked_values)
def test_frames_differing_only_in_masked_fields_decode_alike(values):
    """The five fields the iCRC masks may change in flight: such a frame is
    accepted and read as the original is, on a memo miss and on its hit."""
    wire = WRITE
    variant = with_masked(wire, values)
    assert live.decode_frame(variant) == live.decode_frame(variant) == live.decode_frame(wire)
    nic = write_nic()
    assert nic.receive_frame(variant) and nic.counters.writes_executed == 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_bit_flip_the_icrc_covers_is_a_decode_drop(data):
    """One flipped bit anywhere the iCRC covers unmasked, or in the iCRC
    itself, drops the frame as undecodable: never executed, never another
    drop reason, whichever of the memo's paths it takes."""
    wire = WRITE
    masked = {column for name in MASKED_FIELDS for column in range(*layout.span(name))}
    column = data.draw(st.sampled_from(
        [c for c in range(layout.IPV4.offset, len(wire)) if c not in masked]
    ))
    flipped = bytearray(wire)
    flipped[column] ^= 1 << data.draw(st.integers(0, 7))
    if data.draw(st.booleans()):
        live._PLANS.clear()
    nic = write_nic()
    assert not nic.receive_frame(bytes(flipped))
    assert nic.counters.dropped_decode == 1 == nic.counters.frames_dropped
    assert nic.receive_frame(wire)  # the intact frame still lands after it


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_no_byte_string_makes_a_receiver_raise(data):
    """Receivers take any bytes: arbitrary strings, and damaged or cut real
    frames of every opcode, come back as a verdict, never an exception."""
    if data.draw(st.booleans()):
        frame = data.draw(st.binary(max_size=160))
    else:
        frame = data.draw(damage(data.draw(any_packets()).pack()))
    nic, demux = write_nic(), ResponseDemux()
    assert nic.receive_frame(frame) in (True, False)
    assert demux._file_frame(frame) in (0, 1)
    assert nic.counters.frames_received == 1


def test_the_decode_memo_stays_bounded_under_masked_byte_variants():
    """Masked bytes are part of the memo key: 1 000 variants of one frame
    are 1 000 keys, every one accepted, and the memo never outgrows its
    bound."""
    wire = WRITE
    expected = live.decode_frame(wire)
    for index in range(1000):
        variant = with_masked(wire, (index & 0xFF, index >> 8, index, 0, 0))
        assert live.decode_frame(variant) == expected
        assert 0 < len(live._PLANS) <= live.ADDRESS_MEMO_SIZE


MEMOS = (live._mac_bytes, live._mac_text, live._ipv4_bytes, live._ipv4_text)


def test_address_memos_stay_bounded_under_hostile_addresses():
    """Reflected addresses and header shapes are sender-chosen: 10 000
    distinct MAC/IP pairs through ``unpack`` (and back through ``pack``),
    and 10 000 distinct plan keys, must not grow a memo past its bound."""
    template = bytearray(report_frame())
    for index in range(10_000):
        template[6:12] = struct.pack(">HI", 0x0200, index)  # source MAC
        template[26:30] = struct.pack(">I", 0x0A000000 | index)  # source IP, under the iCRC
        packet = live.RoceV2Packet.unpack(restamp_icrc(bytes(template)))
        live.EthernetHeader(dst_mac=packet.eth.src_mac, src_mac=packet.eth.dst_mac).pack()
        live.Ipv4Header(src_ip=packet.ipv4.dst_ip, dst_ip=packet.ipv4.src_ip).pack()
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == live.ADDRESS_MEMO_SIZE
        assert 0 < info.currsize <= live.ADDRESS_MEMO_SIZE
    # The plan memo too, under 10 000 hostile QPs; and it never keeps a failure.
    for index in range(10_000):
        template[47:50] = index.to_bytes(3, "big")  # destination QP
        assert live.header_plan(bytes(template))[1] == index
        assert 0 < len(live._PLANS) <= live.ADDRESS_MEMO_SIZE
    plans = dict(live._PLANS)
    template[37] ^= 0x01  # UDP destination port: not RoCEv2
    for _ in range(2):  # the second call must raise afresh, not replay a plan
        with pytest.raises(live.PacketDecodeError, match="not RoCEv2"):
            live.header_plan(bytes(template))
    assert live._PLANS == plans


def test_address_helpers_take_any_bytes_like_and_never_memoise_a_failure():
    raw = bytes([2, 0, 0, 0, 0, 9, 10, 0, 0, 1])
    for view in (raw, bytearray(raw), memoryview(raw)):
        assert live._mac_str(view[0:6]) == "02:00:00:00:00:09"
        assert live._ipv4_str(view[6:10]) == "10.0.0.1"
    for helper, bad in ((live._mac_bytes, "02:00:00:00:09"), (live._ipv4_bytes, "10.0.0.256")):
        before = helper.cache_info().currsize
        for _ in range(2):  # the second call must raise afresh, not replay a cached value
            with pytest.raises(ValueError):
                helper(bad)
        assert helper.cache_info().currsize == before


# ---------------------------------------------------------------------------
# The range contract: what pack raises, a plan's stamp raises
# ---------------------------------------------------------------------------


def raised(action):
    with pytest.raises(Exception) as info:
        action()
    return type(info.value), str(info.value)


def read_packet(address=0, qp=0xA00, psn=0, rkey=7):
    return RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=qp, psn=psn),
        reth=Reth(address, rkey, 8),
    )


def add_packet(address=0, amount=1, qp=0xB00, psn=0, rkey=7):
    return RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_FETCH_ADD), dest_qp=qp, psn=psn),
        atomic_eth=AtomicEth(address, rkey, amount),
    )


def adder(qp=0xB00):
    return PrimitiveTranslator(RecordingFabric(), 0, qp, rkey=7)


RANGE_CASES = {
    "psn 2**24": (
        lambda: make_reader(0xA00, 7)._craft_read(0, 8, PSN_MODULUS),
        lambda: read_packet(psn=PSN_MODULUS).pack(),
    ),
    "negative psn": (
        lambda: adder().craft_fetch_add(0, 1, psn=-1),
        lambda: add_packet(psn=-1).pack(),
    ),
    "qp 2**24": (
        lambda: adder(qp=PSN_MODULUS).craft_fetch_add(0, 1, psn=0),
        lambda: add_packet(qp=PSN_MODULUS).pack(),
    ),
    "va 2**64": (
        lambda: make_reader(0xA00, 7)._craft_read(1 << 64, 8, 0),
        lambda: read_packet(address=1 << 64).pack(),
    ),
    "negative va": (
        lambda: adder().craft_fetch_add(-1, 1, psn=0),
        lambda: add_packet(address=-1).pack(),
    ),
    "addend 2**64": (
        lambda: adder().craft_fetch_add(0, 1 << 64, psn=0),
        lambda: add_packet(amount=1 << 64).pack(),
    ),
    "rkey 2**32": (
        lambda: make_reader(0xA00, 1 << 32)._craft_read(0, 8, 0),
        lambda: read_packet(rkey=1 << 32).pack(),
    ),
    "msn 2**24": (
        lambda: RdmaNic(MemoryRegion(64))._enqueue_response(
            read_packet().pack(), 0,
            SimpleNamespace(next_msn=lambda: PSN_MODULUS, effective_peer_qp=0xA00),
            Opcode.RC_RDMA_READ_RESPONSE_ONLY, bytes(8),
        ),
        lambda: Aeth(msn=PSN_MODULUS).pack(),
    ),
}


@pytest.mark.parametrize("case", RANGE_CASES, ids=str)
def test_a_value_its_field_cannot_hold_raises_what_pack_raises(case):
    stamped, packed = RANGE_CASES[case]
    expected = raised(packed)
    assert expected[0] in (ValueError, struct.error)
    assert raised(stamped) == expected
