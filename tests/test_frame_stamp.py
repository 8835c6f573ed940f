"""The frame granularity stamps the batch granularity's templates.

Every per-frame sender of the template sites -- the switch WRITE, the
FETCH_ADD, the Append record WRITE, the READ request, the NIC's READ response
and ATOMIC ACKNOWLEDGE, and the WRITE+CAS store's 8-byte WRITE and CMP_SWAP --
copies its site's memoised template and writes the fields that vary
(:func:`repro.rdma.frames.stamp_frame`).  What must not move is the
wire: every stamped frame equals ``RoceV2Packet.pack`` of the same fields,
a value a field cannot hold raises what ``pack`` raises, and a re-pointed
collector never gets the old template.  The scalar hashing that rides
along (the word loop of ``_fold_bytes``, the cached seed mix of
``hash_folded``, the cached slot size of ``DartConfig``) is pinned to its
previous definitions here too.
"""

import random
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cas_store import CasDartStore
from repro.core.config import DartConfig
from repro.hashing.hash_family import HashFamily, _fold_bytes, fold_key, mix64, splitmix64
from repro.mem.region import MemoryRegion
from repro.mem.slots import SlotLayout
from repro.primitives.clients import OneSidedReader
from repro.primitives.translator import AppendTranslator, PrimitiveTranslator, ResponseDemux
from repro.rdma import frames, layout
from repro.rdma.nic import RdmaNic
from repro.rdma.packets import (
    Aeth,
    AtomicEth,
    Bth,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    Reth,
    RoceV2Packet,
    UdpHeader,
)
from repro.rdma.qp import PSN_MODULUS, PsnPolicy, QueuePair
from repro.switch.dart_switch import DartSwitch

from .test_wire_layout import RecordingFabric

U64 = (1 << 64) - 1
macs = st.binary(min_size=6, max_size=6).map(lambda raw: ":".join(f"{b:02x}" for b in raw))
ips = st.binary(min_size=4, max_size=4).map(lambda raw: ".".join(str(b) for b in raw))
u24 = st.integers(0, PSN_MODULUS - 1)
#: 24-bit counters with the top of the range drawn often.
psns = st.one_of(u24, st.integers(PSN_MODULUS - 4, PSN_MODULUS - 1))
rkeys = st.integers(0, (1 << 32) - 1)
#: Addresses anywhere, and a good share of them within a page of 2**64.
vas = st.one_of(st.integers(0, U64), st.integers(U64 - 4096, U64))
#: Payload widths, odd ones included.
widths = st.integers(1, 41)


def make_reader(qp, rkey):
    nic = RdmaNic(MemoryRegion(64))
    return OneSidedReader(RecordingFabric(), 0, nic, qp, ResponseDemux(), rkey)


def shape_report(draw):
    """``DartSwitch._craft_frame``: one WRITE to an installed endpoint."""
    config = DartConfig(
        slots_per_collector=64, value_bytes=draw(widths),
        checksum_bits=draw(st.sampled_from([8, 16, 32])),
    )
    switch = DartSwitch(config, switch_id=draw(st.integers(0, (1 << 32) - 1)))
    endpoint = dict(
        mac=draw(macs), ip=draw(ips), qp_number=draw(u24), rkey=draw(rkeys),
        base_address=draw(st.integers(U64 - (1 << 20), U64 - 64 * config.slot_bytes)),
    )
    psn = draw(psns)
    switch.install_collector(0, initial_psn=psn, **endpoint)
    key = draw(st.binary(max_size=20))
    resolved = switch.addressing.resolve(key)
    value = draw(st.binary(max_size=config.value_bytes))
    copy = draw(st.integers(0, config.redundancy - 1))
    role, frame = switch._craft_frame(resolved, value, copy)
    assert role == 0
    return frame, RoceV2Packet(
        eth=EthernetHeader(dst_mac=endpoint["mac"], src_mac=switch.src_mac),
        ipv4=Ipv4Header(src_ip=switch.src_ip, dst_ip=endpoint["ip"]),
        udp=UdpHeader(src_port=0xC000 | (resolved.checksum & 0x3FFF)),
        bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=endpoint["qp_number"], psn=psn),
        reth=Reth(
            endpoint["base_address"] + resolved.slot_indexes[copy] * config.slot_bytes,
            endpoint["rkey"], config.slot_bytes,
        ),
        payload=switch._codec.encode(resolved.checksum, value),
    )


def shape_fetch_add(draw):
    """``PrimitiveTranslator.craft_fetch_add``."""
    qp, rkey, psn = draw(u24), draw(rkeys), draw(psns)
    address, amount = draw(vas), draw(st.integers(0, U64))
    frame = PrimitiveTranslator(RecordingFabric(), 3, qp, rkey=rkey).craft_fetch_add(
        address, amount, psn=psn
    )
    return frame, RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_FETCH_ADD), dest_qp=qp, psn=psn),
        atomic_eth=AtomicEth(address, rkey, amount),
    )


def shape_record_write(draw):
    """``AppendTranslator.craft_record_write``."""
    qp, rkey, psn = draw(u24), draw(rkeys), draw(psns)
    capacity, record_bytes = draw(st.integers(1, 80)), draw(widths)
    data_address = draw(st.one_of(
        st.integers(0, U64 - capacity * record_bytes),
        st.integers(U64 - capacity * record_bytes - 64, U64 - capacity * record_bytes),
    ))
    writer = AppendTranslator(
        RecordingFabric(), 3, qp, tail_address=0, data_address=data_address, capacity=capacity,
        record_bytes=record_bytes, rkey=rkey, demux=ResponseDemux(),
    )
    writer._psn = psn
    slot = draw(st.integers(0, capacity - 1))
    record = draw(st.binary(max_size=record_bytes))
    frame = writer.craft_record_write(slot, record)
    assert writer.psn == (psn + 1) % PSN_MODULUS
    return frame, RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=qp, psn=psn),
        reth=Reth(data_address + slot * record_bytes, rkey, record_bytes),
        payload=record.ljust(record_bytes, b"\x00"),
    )


def shape_read(draw):
    """``OneSidedReader._craft_read``, the frame body of a short ``read_run``."""
    qp, rkey, psn = draw(u24), draw(rkeys), draw(psns)
    address, length = draw(vas), draw(st.integers(0, (1 << 32) - 1))
    return make_reader(qp, rkey)._craft_read(address, length, psn), RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_RDMA_READ_REQUEST), dest_qp=qp, psn=psn),
        reth=Reth(address, rkey, length),
    )


def shape_response(draw, read=True):
    """``RdmaNic._enqueue_response`` for a parsed READ or FETCH_ADD request."""
    nic = RdmaNic(MemoryRegion(64), mac=draw(macs), ip=draw(ips))
    qp = QueuePair(qp_number=draw(u24), policy=PsnPolicy.IGNORE, peer_qp=draw(u24))
    qp.msn = draw(psns)
    if read:
        data = draw(st.binary(min_size=1, max_size=41))
        request, response = Opcode.RC_RDMA_READ_REQUEST, Opcode.RC_RDMA_READ_RESPONSE_ONLY
    else:
        data = draw(st.integers(0, U64)).to_bytes(8, "big")
        request, response = Opcode.RC_FETCH_ADD, Opcode.RC_ATOMIC_ACKNOWLEDGE
    request = RoceV2Packet.unpack(RoceV2Packet(
        eth=EthernetHeader(dst_mac=nic.mac, src_mac=draw(macs)),
        ipv4=Ipv4Header(src_ip=draw(ips), dst_ip=nic.ip),
        udp=UdpHeader(src_port=draw(st.integers(0, 0xFFFF))),
        bth=Bth(opcode=int(request), dest_qp=qp.qp_number, psn=draw(psns)),
        reth=Reth(draw(vas), draw(rkeys), len(data)),
        atomic_eth=AtomicEth(draw(vas), draw(rkeys), draw(st.integers(0, U64))),
    ).pack())
    msn = (qp.msn + 1) % PSN_MODULUS
    nic._enqueue_response(request, qp, response, data)
    (frame,) = nic.transmit()
    return frame, RoceV2Packet(
        eth=EthernetHeader(dst_mac=request.eth.src_mac, src_mac=nic.mac),
        ipv4=Ipv4Header(src_ip=nic.ip, dst_ip=request.ipv4.src_ip),
        udp=UdpHeader(src_port=request.udp.src_port),
        bth=Bth(opcode=int(response), dest_qp=qp.peer_qp, psn=request.bth.psn),
        aeth=Aeth(msn=msn),
        payload=data,
    )


def shape_read_response(draw):
    return shape_response(draw)


def shape_atomic_ack(draw):
    return shape_response(draw, read=False)


def cas_put(draw):
    """``CasDartStore._craft_put_frames`` for a drawn checksum, value and slot
    pair; a zero checksum and value pack to the word 0, stored as 1."""
    store = CasDartStore(num_slots=64)
    checksum = draw(st.one_of(st.just(0), st.integers(0, (1 << 24) - 1)))
    value = draw(st.one_of(st.just(0), st.integers(0, (1 << 40) - 1)))
    slots = draw(st.tuples(st.integers(0, 63), st.integers(0, 63)))
    resolved = SimpleNamespace(checksum=checksum, slot_indexes=slots)
    store.addressing = SimpleNamespace(resolve=lambda key: resolved)
    word = (checksum << 40 | value) or 1
    addresses = [store.region.base_address + 8 * slot for slot in slots]
    return store._craft_put_frames(b"key", value), word, addresses, store.region.rkey


def shape_cas_write(draw):
    (write, _cas), word, (address, _), rkey = cas_put(draw)
    return write, RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_RDMA_WRITE_ONLY), dest_qp=0x300),
        reth=Reth(address, rkey, 8),
        payload=word.to_bytes(8, "big"),
    )


def shape_cmp_swap(draw):
    (_write, cas), word, (_, address), rkey = cas_put(draw)
    return cas, RoceV2Packet(
        bth=Bth(opcode=int(Opcode.RC_CMP_SWAP), dest_qp=0x300),
        atomic_eth=AtomicEth(address, rkey, swap_add=word, compare=0),
    )


SHAPES = [
    shape_report, shape_fetch_add, shape_record_write, shape_read, shape_read_response,
    shape_atomic_ack, shape_cas_write, shape_cmp_swap,
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_stamped_frame_is_the_scalar_pack(shape, data):
    frame, packet = shape(data.draw)
    assert frame == packet.pack()
    assert RoceV2Packet.unpack(frame) == packet


def test_both_granularities_stamp_one_memo_entry():
    """A frame and a batch of the same shape come from one template row."""
    frames._TEMPLATE_MEMO.clear()
    reader = make_reader(0xA00, 7)
    addresses = [0x40, 0x48, 0x50, 0x58]
    single = [reader._craft_read(address, 8, psn) for psn, address in enumerate(addresses)]
    (row,) = frames._TEMPLATE_MEMO.values()
    reader._psn = 0
    assert reader._read_run_batch(addresses, 8) == [None] * 4
    assert list(frames._TEMPLATE_MEMO.values()) == [row]
    assert [matrix.tobytes() for matrix in reader.fabric.matrices[0]] == single


# ---------------------------------------------------------------------------
# The range contract: what pack raises, the stamp raises
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
}


@pytest.mark.parametrize("case", RANGE_CASES, ids=str)
def test_a_value_its_field_cannot_hold_raises_what_pack_raises(case):
    stamped, packed = RANGE_CASES[case]
    expected = raised(packed)
    assert expected[0] in (ValueError, struct.error)
    assert raised(stamped) == expected


def test_msn_past_24_bits_raises_what_aeth_pack_raises():
    template = np.zeros(64, dtype=np.uint8)
    assert raised(lambda: frames.stamp_frame(template, {"aeth.msn": PSN_MODULUS})) == raised(
        lambda: Aeth(msn=PSN_MODULUS).pack()
    )


# ---------------------------------------------------------------------------
# Freshness: the scalar frame follows a re-pointed collector
# ---------------------------------------------------------------------------


def test_update_collector_between_puts_changes_every_reflected_byte():
    """Fails if the switch template is memoised on the role id."""
    config = DartConfig(slots_per_collector=64, num_collectors=1)
    switch = DartSwitch(config, switch_id=9)
    old = dict(mac="02:00:00:00:00:01", ip="10.0.0.1", qp_number=0x100,
               rkey=0x1111, base_address=0x10000)
    new = dict(mac="02:00:00:00:00:02", ip="10.0.0.2", qp_number=0x200,
               rkey=0x2222, base_address=0x90000)
    switch.install_collector(0, **old)
    reflected = {}
    for endpoint in (old, new):
        (role, frame), _second = switch.report(b"flow", b"v")
        packet = RoceV2Packet.unpack(frame)
        slot = switch.addressing.resolve(b"flow").slot_indexes[0]
        assert role == 0 and {
            "mac": packet.eth.dst_mac, "ip": packet.ipv4.dst_ip,
            "qp_number": packet.bth.dest_qp, "rkey": packet.reth.rkey,
            "base_address": packet.reth.virtual_address - slot * config.slot_bytes,
        } == endpoint
        reflected[endpoint["mac"]] = {
            name: frame[slice(*layout.span(name))]
            for name in ("eth.dst_mac", "ipv4.dst_ip", "ipv4.checksum", "bth.dest_qp",
                         "reth.rkey", "reth.virtual_address")
        }
        switch.update_collector(0, **new)
    before, after = reflected.values()
    assert all(before[name] != after[name] for name in before)


# ---------------------------------------------------------------------------
# Scalar hashing: same lanes, same hashes
# ---------------------------------------------------------------------------


def fold_bytes_word_loop(data: bytes) -> int:
    """``_fold_bytes`` as it was: one ``int.from_bytes`` and one call per word."""
    acc = 0xCBF29CE484222325
    for offset in range(0, len(data), 8):
        chunk = data[offset : offset + 8]
        word = int.from_bytes(chunk, "big")
        acc = splitmix64((acc ^ word) & U64)
    return splitmix64((acc ^ len(data)) & U64)


def test_fold_bytes_matches_the_word_loop():
    rng = random.Random(25)
    for length in range(131):
        for raw in (
            bytes(length), b"\xff" * length, *(rng.randbytes(length) for _ in range(8))
        ):
            assert _fold_bytes(raw) == fold_bytes_word_loop(raw), raw
    assert _fold_bytes(bytearray(b"ragged tail")) == fold_bytes_word_loop(b"ragged tail")


@given(lane=st.integers(0, U64), index=st.sampled_from([0, 1, 7, 0x40000000, 0x7FFFFFFF]))
def test_hash_folded_is_mix64_under_the_member_seed(lane, index):
    family = HashFamily(seed=11)
    expected = mix64(lane, family._function_seed(index))
    assert family.hash_folded(lane, index) == expected
    assert family.hash_folded(lane, index) == expected  # the cached seed serves again
    assert family.hash_key(lane.to_bytes(8, "big"), index) == family.hash_folded(
        fold_key(lane.to_bytes(8, "big")), index
    )


def test_config_derives_its_layout_once_and_compares_by_fields():
    config = DartConfig(checksum_bits=12, value_bytes=9)
    assert config.layout is config.layout
    assert config.layout == SlotLayout(checksum_bits=12, value_bytes=9)
    assert config.slot_bytes == 11 == config.layout.slot_bytes
    fresh = DartConfig(checksum_bits=12, value_bytes=9)
    assert fresh == config and hash(fresh) == hash(config)
    assert {config: 1}[fresh] == 1
    assert DartConfig(checksum_bits=12, value_bytes=10) != config
