"""The wire layout is written down once; every batch encoder stamps from it.

Three contracts.  *Derivation*: the constants ``repro.rdma.layout``
computes -- header sizes, ``struct`` formats, every public offset
``repro.rdma.frames`` exports, the iCRC mask, the header plan's key,
the NIC's uniform-column sets -- equal literal expectations written here
and the bytes the frozen ``tests/reference_codec.py`` packs, never the
table itself.  *Differential*: for each of the five batch-encoded frame
shapes, every row :class:`~repro.rdma.frames.TemplateEncoder` stamps is
the oracle's scalar pack of the same fields.  *Freshness*: a template is
keyed on the endpoint's values, so a re-pointed collector never gets the
old one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.collector import CollectorEndpoint
from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.mem.region import MemoryRegion
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import (
    AppendTranslator,
    PrimitiveTranslator,
    ResponseDemux,
)
from repro.rdma import frames, layout, nic as nic_module, packets
from repro.rdma.frames import FrameBatch, icrc_ok
from repro.rdma.nic import RdmaNic
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair
from repro.switch.dart_switch import DartSwitch

from . import reference_codec as reference

Opcode = reference.Opcode

# ---------------------------------------------------------------------------
# (a) Derivation
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
    assert packets._PLAN_KEY.unpack_from(bytes(range(50))) == (
        0x0C0D, 14, 0x1011, 23, 0x2425, 42, bytes([47, 48, 49]),
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
    assert int.from_bytes(wire[start:stop], "big") == reference.internet_checksum(
        bytes(header)
    )
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
# (b) Differential: five shapes against the oracle
# ---------------------------------------------------------------------------

U64 = (1 << 64) - 1
macs = st.binary(min_size=6, max_size=6).map(lambda raw: ":".join(f"{b:02x}" for b in raw))
ips = st.binary(min_size=4, max_size=4).map(lambda raw: ".".join(str(b) for b in raw))
qps = st.integers(0, PSN_MODULUS - 1)
rkeys = st.integers(0, (1 << 32) - 1)
#: PSN / MSN counters that start a short run from the 24-bit wrap.
near_wrap = st.one_of(st.integers(0, PSN_MODULUS - 1), st.integers(PSN_MODULUS - 70, PSN_MODULUS - 1))
counts = st.integers(1, 64)


def high_base(draw, span):
    """A base address whose ``span`` bytes end at or just below 2**64, or anywhere."""
    return draw(st.one_of(
        st.integers(0, U64 - span), st.integers(U64 - span - 64, U64 - span),
    ))


class RecordingFabric:
    """Keeps the bytes of every batch offered; delivers nothing."""

    def __init__(self):
        self.matrices = []

    def send(self, endpoint_id, frame):
        raise AssertionError("the batch encoders send matrices")

    def send_batch(self, batch):
        self.matrices.append(batch.frames.copy())
        batch.release()

    def flush(self):
        return 0

    def poll(self, endpoint_id):
        return []


def shape_report(draw):
    """``DartSwitch.encode_batch``: WRITEs to several collector endpoints."""
    config = DartConfig(
        redundancy=draw(st.integers(1, 3)), value_bytes=draw(st.integers(1, 24)),
        slots_per_collector=64, num_collectors=draw(st.integers(1, 3)),
    )
    switch = DartSwitch(config, switch_id=draw(st.integers(0, (1 << 32) - 1)))
    endpoints = []
    for role in range(config.num_collectors):
        endpoints.append(dict(
            mac=draw(macs), ip=draw(ips), qp_number=draw(qps), rkey=draw(rkeys),
            base_address=high_base(draw, 64 * config.slot_bytes),
        ))
        switch.install_collector(role, CollectorEndpoint(role, **endpoints[-1]), draw(near_wrap))
    psns = [switch.psn_registers.read(role) for role in range(config.num_collectors)]
    reports = draw(st.integers(1, 64 // config.redundancy))

    def uints(high, shape):
        size = int(np.prod(shape))
        drawn = draw(st.lists(st.integers(0, high), min_size=size, max_size=size))
        return np.array(drawn, dtype=np.uint64).reshape(shape)

    batch = ReportBatch(
        config,
        uints(config.num_collectors - 1, reports),
        uints((1 << config.checksum_bits) - 1, reports),
        uints(63, (config.redundancy, reports)),
        uints(255, (reports, config.slot_bytes)).astype(np.uint8),
    )
    rows = switch.encode_batch(batch)
    expected = []
    for report in range(reports):
        role = int(batch.collector_ids[report])
        endpoint = endpoints[role]
        for copy in range(config.redundancy):
            payload = batch.payloads[report].tobytes()
            expected.append(reference.RoceV2Packet(
                eth=reference.EthernetHeader(dst_mac=endpoint["mac"], src_mac=switch.src_mac),
                ipv4=reference.Ipv4Header(src_ip=switch.src_ip, dst_ip=endpoint["ip"]),
                udp=reference.UdpHeader(src_port=0xC000 | (int(batch.checksums[report]) & 0x3FFF)),
                bth=reference.Bth(
                    opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=endpoint["qp_number"],
                    psn=psns[role] % PSN_MODULUS,
                ),
                reth=reference.Reth(
                    endpoint["base_address"]
                    + int(batch.slot_indexes[copy, report]) * config.slot_bytes,
                    endpoint["rkey"], len(payload),
                ),
                payload=payload,
            ))
            psns[role] += 1
    return rows.frames, expected


def shape_fetch_add(draw):
    """``PrimitiveTranslator._encode_fetch_add_batch``."""
    qp, rkey, psn, count = draw(qps), draw(rkeys), draw(near_wrap), draw(counts)
    translator = PrimitiveTranslator(RecordingFabric(), 3, qp, rkey=rkey)
    translator._psn = psn
    addresses = draw(st.lists(st.integers(0, U64), min_size=count, max_size=count))
    amounts = draw(st.lists(st.integers(0, U64), min_size=count, max_size=count))
    rows = translator._encode_fetch_add_batch(
        np.array(addresses, dtype=np.uint64), np.array(amounts, dtype=np.uint64)
    )
    return rows.frames, [
        reference.RoceV2Packet(
            bth=reference.Bth(
                opcode=int(Opcode.RC_FETCH_ADD), dest_qp=qp, psn=(psn + row) % PSN_MODULUS
            ),
            atomic_eth=reference.AtomicEth(addresses[row], rkey, amounts[row]),
        )
        for row in range(count)
    ]


def shape_record_write(draw):
    """``AppendTranslator.append_many`` (the tail reservation stubbed out)."""
    qp, rkey, psn, count = draw(qps), draw(rkeys), draw(near_wrap), draw(counts)
    capacity, record_bytes = draw(st.integers(1, 80)), draw(st.integers(1, 40))
    data_address = high_base(draw, capacity * record_bytes)
    start = draw(st.integers(0, 1 << 40))
    fabric = RecordingFabric()
    writer = AppendTranslator(
        fabric, 3, qp, tail_address=0, data_address=data_address, capacity=capacity,
        record_bytes=record_bytes, rkey=rkey, demux=ResponseDemux(),
    )
    writer._psn = psn
    writer._reserve = lambda reserved: start
    records = draw(st.lists(st.binary(max_size=record_bytes), min_size=count, max_size=count))
    assert writer.append_many(records) == start
    (rows,) = fabric.matrices
    return rows, [
        reference.RoceV2Packet(
            bth=reference.Bth(
                opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=qp,
                psn=(psn + row) % PSN_MODULUS,
            ),
            reth=reference.Reth(
                data_address + ((start + row) % capacity) * record_bytes, rkey, record_bytes
            ),
            payload=records[row].ljust(record_bytes, b"\x00"),
        )
        for row in range(count)
    ]


def shape_read(draw):
    """``OneSidedReader._read_run_batch`` requests."""
    qp, rkey, psn, count = draw(qps), draw(rkeys), draw(near_wrap), draw(counts)
    length = draw(st.integers(0, 4096))
    reader = OneSidedReader(
        RecordingFabric(), 0, RdmaNic(MemoryRegion(64)), qp, ResponseDemux(), rkey
    )
    reader._psn = psn
    addresses = draw(st.lists(st.integers(0, U64), min_size=count, max_size=count))
    rows = reader._read_run_batch(addresses, length).frames
    return rows, [
        reference.RoceV2Packet(
            bth=reference.Bth(
                opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=qp,
                psn=(psn + row) % PSN_MODULUS,
            ),
            reth=reference.Reth(addresses[row], rkey, length),
        )
        for row in range(count)
    ]


def shape_read_response(draw):
    """``RdmaNic._ingest_read_batch`` responses to one requester's READs."""
    qp_number, peer_qp, count = draw(qps), draw(qps), draw(counts)
    length = draw(st.integers(0, 48))
    region = MemoryRegion(256, base_address=high_base(draw, 256), rkey=draw(rkeys))
    region._buffer[:] = bytes(draw(st.binary(min_size=256, max_size=256)))
    nic = RdmaNic(region, mac=draw(macs), ip=draw(ips))
    qp = nic.create_queue_pair(
        QueuePair(qp_number=qp_number, policy=PsnPolicy.IGNORE, peer_qp=peer_qp)
    )
    qp.msn = msn = draw(near_wrap)
    src_mac, src_ip, src_port = draw(macs), draw(ips), draw(st.integers(0, 0xFFFF))
    offsets = draw(st.lists(st.integers(0, 256 - length), min_size=count, max_size=count))
    psns = draw(st.lists(st.integers(0, PSN_MODULUS - 1), min_size=count, max_size=count))
    requests = np.array([
        np.frombuffer(reference.RoceV2Packet(
            eth=reference.EthernetHeader(dst_mac=nic.mac, src_mac=src_mac),
            ipv4=reference.Ipv4Header(src_ip=src_ip, dst_ip=nic.ip),
            udp=reference.UdpHeader(src_port=src_port),
            bth=reference.Bth(
                opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=qp_number, psn=psns[row]
            ),
            reth=reference.Reth(region.base_address + offsets[row], region.rkey, length),
        ).pack(), dtype=np.uint8)
        for row in range(count)
    ])
    assert nic.ingest_batch(FrameBatch(requests, np.zeros(count, dtype=np.int64))) == count
    (responses,) = nic.transmit()
    image = region.snapshot()
    return responses.frames, [
        reference.RoceV2Packet(
            eth=reference.EthernetHeader(dst_mac=src_mac, src_mac=nic.mac),
            ipv4=reference.Ipv4Header(src_ip=nic.ip, dst_ip=src_ip),
            udp=reference.UdpHeader(src_port=src_port),
            bth=reference.Bth(
                opcode=int(Opcode.RC_RDMA_READ_RESPONSE_ONLY), dest_qp=peer_qp, psn=psns[row]
            ),
            aeth=reference.Aeth(syndrome=0, msn=(msn + 1 + row) % PSN_MODULUS),
            payload=image[offsets[row] : offsets[row] + length],
        )
        for row in range(count)
    ]


SHAPES = [shape_report, shape_fetch_add, shape_record_write, shape_read, shape_read_response]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_stamped_row_is_the_oracles_scalar_pack(shape, data):
    rows, expected = shape(data.draw)
    assert [row.tobytes() for row in rows] == [packet.pack() for packet in expected]
    assert icrc_ok(rows).all()


# ---------------------------------------------------------------------------
# (c) Freshness
# ---------------------------------------------------------------------------


def test_update_collector_between_batches_changes_every_reflected_field():
    """Fails if a switch template is memoised on the role id."""
    config = DartConfig(slots_per_collector=64, num_collectors=1)
    switch = DartSwitch(config, switch_id=9)
    old = dict(mac="02:00:00:00:00:01", ip="10.0.0.1", qp_number=0x100,
               rkey=0x1111, base_address=0x10000)
    new = dict(mac="02:00:00:00:00:02", ip="10.0.0.2", qp_number=0x200,
               rkey=0x2222, base_address=0x90000)
    switch.install_collector(0, CollectorEndpoint(0, **old))
    items = [((b"flow", index), b"v") for index in range(5)]
    for endpoint in (old, new):
        batch = ReportBatch.from_items(switch.addressing, items)
        for row, slots in zip(
            switch.encode_batch(batch).frames[:: config.redundancy], batch.slot_indexes[0]
        ):
            packet = reference.RoceV2Packet.unpack(row.tobytes())
            assert {
                "mac": packet.eth.dst_mac, "ip": packet.ipv4.dst_ip,
                "qp_number": packet.bth.dest_qp, "rkey": packet.reth.rkey,
                "base_address": packet.reth.virtual_address - int(slots) * config.slot_bytes,
            } == endpoint
        switch.update_collector(0, CollectorEndpoint(0, **new))
