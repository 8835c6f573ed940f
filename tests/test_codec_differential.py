"""The live scalar codecs against the pre-optimisation oracle, plus the
reserved-bit rule they now share with the columnar NIC.

``tests/reference_codec.py`` is the parent commit's ``pack`` / ``unpack`` /
``compute_icrc`` and table-loop CRC, verbatim.  The differential below
demands byte-identical frames, identical decoded dataclasses and identical
accept/reject decisions and error text -- except for frames carrying a bit
the header dataclasses do not model (the BTH TVer nibble, frame byte 43;
the seven reserved bits beside AckReq, frame byte 50).  There the oracle
checksummed *re-packed* headers, i.e. treated those bits as zero whatever
arrived; the live decoder covers the received bytes, which is the RoCEv2
annex's rule and what ``frames.icrc_rows`` always did.  The exception is
asserted as exactly that set.  The receivers' header-plan decode
(``header_plan`` / ``received_plan`` / ``frame_fields``) is held to the
same oracle, and a batch with a row off the plan to looped
``receive_frame``.
"""

import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.collector import CollectorEndpoint
from repro.core.config import DartConfig
from repro.mem.region import MemoryRegion
from repro.primitives.translator import ReadResponseRows, ResponseDemux
from repro.rdma import layout, packets as live
from repro.rdma.frames import _ICRC_SEED, FrameBatch
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import Opcode
from repro.rdma.qp import QueuePair
from repro.switch.dart_switch import DartSwitch

from . import reference_codec as reference

#: Frame bytes holding bits no header dataclass models, and those bits.
TVER_BYTE, TVER_BITS = 43, 0x0F
RESERVED7_BYTE, RESERVED7_BITS = 50, 0x7F

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


def restamp_icrc(wire: bytes) -> bytes:
    """``wire`` with its iCRC recomputed over the bytes as they stand, by
    the oracle's table loop and the annex mask (no live code involved)."""
    image = bytearray(b"\xff" * 8 + wire[14:-4])
    for column in (9, 16, 18, 19, 34, 35, 40):
        image[column] = 0xFF
    return wire[:-4] + struct.pack("<I", reference.crc32(bytes(image)))


macs = st.binary(min_size=6, max_size=6).map(lambda raw: ":".join(f"{b:02x}" for b in raw))
ips = st.binary(min_size=4, max_size=4).map(lambda raw: ".".join(str(b) for b in raw))
u8, u16, u24 = (st.integers(0, (1 << bits) - 1) for bits in (8, 16, 24))
u32, u64 = st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 64) - 1)


@st.composite
def packets(draw) -> live.RoceV2Packet:
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
    packet = data.draw(packets())
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
        assert outcome(reference, received) == outcome(
            live, without_unmodelled_bits(received)
        )


def plan_decode(wire: bytes):
    """What the NIC and the demux read of ``wire`` through its header plan:
    None if rejected, else ``(opcode, dest_qp, psn, request fields, payload)``."""
    plan = live.received_plan(wire)
    if plan is None:
        return None
    opcode, dest_qp, end = plan
    psn, *fields, payload = live.frame_fields(wire, opcode, end)
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
    wire = data.draw(packets()).pack()
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


# ----------------------------------------------------------------------
# One wire, both granularities
# ----------------------------------------------------------------------

CONFIG = DartConfig(slots_per_collector=64, num_collectors=1, redundancy=2)
ENDPOINT = CollectorEndpoint(0, "02:00:00:00:00:01", "10.0.0.1", 0x11, 0x42, 0x10000)


def report_frame() -> bytes:
    switch = DartSwitch(CONFIG, switch_id=7)
    switch.install_collector(0, ENDPOINT)
    return switch.report(("flow", 1), b"v" * CONFIG.value_bytes)[0][1]


def fresh_nic() -> RdmaNic:
    nic = RdmaNic(
        MemoryRegion(CONFIG.slots_per_collector * CONFIG.slot_bytes, 0x10000, rkey=0x42)
    )
    nic.create_queue_pair(QueuePair(qp_number=0x11))
    return nic


def with_bits(wire: bytes, byte: int, bits: int) -> bytes:
    dirty = bytearray(wire)
    dirty[byte] |= bits
    return bytes(dirty)


UNMODELLED = [
    pytest.param(TVER_BYTE, 0x01, id="tver"),
    pytest.param(RESERVED7_BYTE, 0x40, id="reserved7-high"),
    pytest.param(RESERVED7_BYTE, 0x01, id="reserved7-low"),
]


def ingest_both_ways(wire: bytes):
    """(counters after receive_frame, counters after ingest_batch) on twin NICs."""
    scalar, columnar = fresh_nic(), fresh_nic()
    scalar.receive_frame(wire)
    columnar.ingest_batch(
        FrameBatch(
            np.frombuffer(wire, dtype=np.uint8).reshape(1, -1).copy(),
            np.zeros(1, dtype=np.int64),
        )
    )
    return scalar, columnar


@pytest.mark.parametrize("byte, bits", UNMODELLED)
def test_nic_granularities_agree_on_unmodelled_bits(byte, bits):
    """The iCRC covers those bits as received: a frame checksummed with
    them is executed by both NIC paths, one checksummed as if they were
    zero is a decode drop on both."""
    dirty = with_bits(report_frame(), byte, bits)

    honest = restamp_icrc(dirty)
    scalar, columnar = ingest_both_ways(honest)
    assert scalar.counters == columnar.counters
    assert (scalar.counters.writes_executed, scalar.counters.dropped_decode) == (1, 0)
    assert scalar.region.snapshot() == columnar.region.snapshot()

    scalar, columnar = ingest_both_ways(dirty)  # iCRC still that of the clean frame
    assert scalar.counters == columnar.counters
    assert (scalar.counters.writes_executed, scalar.counters.dropped_decode) == (0, 1)


def report_matrix() -> np.ndarray:
    """Four reports' eight WRITEs: the UDP source port differs per report."""
    switch = DartSwitch(CONFIG, switch_id=7)
    switch.install_collector(0, ENDPOINT)
    return np.stack([
        np.frombuffer(frame, dtype=np.uint8)
        for key in range(4)
        for _role, frame in switch.report(("flow", key), b"v" * CONFIG.value_bytes)
    ])


@pytest.mark.parametrize(
    "field, vectorised",
    [
        (name, False)
        for name in (
            "eth.ethertype", "ipv4.version_ihl", "ipv4.total_length", "ipv4.protocol",
            "udp.dst_port", "bth.opcode", "bth.dest_qp", "reth.rkey", "reth.dma_length",
        )
    ]
    + [("udp.src_port", True)],
)
def test_a_row_off_the_plan_takes_the_scalar_path(field, vectorised):
    """A row differing from row 0 in a plan-key column, the rkey or the
    length sends the batch to looped ``receive_frame`` (same counters, same
    memory); a differing UDP source port -- per-report ECMP entropy -- does not."""
    matrix = report_matrix()
    last = layout.span(field)[1] - 1
    matrix[3, last] ^= 0x01
    matrix[3] = np.frombuffer(restamp_icrc(matrix[3].tobytes()), dtype=np.uint8)
    scalar, columnar = fresh_nic(), fresh_nic()
    for row in matrix:
        scalar.receive_frame(row.tobytes())
    branch_calls = []
    branch = columnar._ingest_write_batch
    columnar._ingest_write_batch = lambda *args: branch_calls.append(1) or branch(*args)
    columnar.ingest_batch(FrameBatch(matrix, np.zeros(len(matrix), dtype=np.int64)))
    assert bool(branch_calls) == vectorised
    assert scalar.counters == columnar.counters
    assert scalar.counters.frames_received == len(matrix)
    assert scalar.counters.writes_executed == len(matrix) - (not vectorised)
    assert scalar.region.snapshot() == columnar.region.snapshot()


def read_response(payload: bytes) -> bytes:
    return live.RoceV2Packet(
        eth=live.EthernetHeader(dst_mac="02:00:00:00:00:07", src_mac="02:00:00:00:00:01"),
        ipv4=live.Ipv4Header(src_ip="10.0.0.1", dst_ip="172.0.0.7"),
        bth=live.Bth(opcode=int(Opcode.RC_RDMA_READ_RESPONSE_ONLY), dest_qp=0xA00, psn=5),
        aeth=live.Aeth(),
        payload=payload,
    ).pack()


def demux_both_ways(wire: bytes):
    """(inbox, drops) of the scalar decode and of the matrix decode."""
    results = []
    for as_matrix in (False, True):
        demux = ResponseDemux()
        if as_matrix:
            demux._file_batch(np.frombuffer(wire, dtype=np.uint8).reshape(1, -1).copy())
        else:
            demux._file_frame(wire)
        results.append((demux.take(0xA00), demux.c_dropped_decode.value))
    return results


@pytest.mark.parametrize("byte, bits", UNMODELLED)
def test_demux_decodes_agree_on_unmodelled_bits(byte, bits):
    payload = bytes(range(24))
    dirty = with_bits(read_response(payload), byte, bits)

    (frames, scalar_drops), (rows, matrix_drops) = demux_both_ways(restamp_icrc(dirty))
    assert (scalar_drops, matrix_drops) == (0, 0)
    assert [bytes(packet.payload) for packet in frames] == [payload]
    assert isinstance(rows[0], ReadResponseRows)
    assert rows[0].psns.tolist() == [5] and rows[0].payloads.tobytes() == payload

    (frames, scalar_drops), (rows, matrix_drops) = demux_both_ways(dirty)
    assert (frames, rows) == ([], [])
    assert (scalar_drops, matrix_drops) == (1, 1)


# ----------------------------------------------------------------------
# The address memos
# ----------------------------------------------------------------------

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
