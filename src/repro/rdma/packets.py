"""RoCEv2 wire-format codecs.

A RoCEv2 frame is::

    Ethernet | IPv4 | UDP (dst port 4791) | BTH | [RETH | AtomicETH] | payload | iCRC

The DART switch prototype (paper section 6) crafts these frames in the
Tofino egress pipeline, including the invariant CRC (iCRC) produced by the
native CRC extern.  This module provides pack/unpack for every header the
prototype emits, plus :func:`compute_icrc` implementing the RoCEv2 masking
rules so that the switch model and the NIC model agree bit-for-bit.

Only the headers DART needs are modelled (one-sided WRITE, FETCH_ADD and
CMP_SWAP); two-sided verbs, GRH/IPv6 and congestion-management extension
headers are out of scope, as they are for the paper's prototype.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import Dict, Optional

from repro.rdma.layout import (
    AETH,
    ATOMIC_ETH,
    BTH,
    ETHERNET,
    ETHERTYPE_IPV4,
    FIELD_NAMES,
    ICRC,
    ICRC_MASKED_COLUMNS,
    ICRC_PREFIX_BYTES,
    IP_PROTO_UDP,
    IPV4,
    ICRC_MASKED_FIELDS,
    IPV4_VERSION_IHL,
    RETH,
    ROCEV2_UDP_PORT,
    UDP,
    packer,
    picker,
    span,
)

_ETH = ETHERNET.struct
_IPV4 = IPV4.struct
_UDP = UDP.struct
_BTH = BTH.struct
_RETH = RETH.struct
_ATOMIC_ETH = ATOMIC_ETH.struct
_AETH = AETH.struct
_ICRC = ICRC.struct
_IPV4_CHECKSUM = packer("ipv4.checksum")
_IPV4_CHECKSUM_AT = IPV4["checksum"].offset
# ``struct`` has no 24-bit code: these pack as byte strings of the table's width.
_DEST_QP_BYTES = BTH["dest_qp"].width
_PSN_BYTES = BTH["psn"].width
_MSN_BYTES = AETH["msn"].width

_IP_OFF, _UDP_OFF, _BTH_OFF, _EXT_OFF = IPV4.offset, UDP.offset, BTH.offset, BTH.end
#: Every field from Ethernet to the BTH: what :meth:`RoceV2Packet.unpack` parses in one pass.
_FIXED = packer(*FIELD_NAMES[: FIELD_NAMES.index("bth.psn") + 1])

#: Entries each address memo below, and the :func:`header_plan` memo, may
#: hold.  Bounded because the addresses and shapes of a received frame are
#: sender-chosen (the same reason a NIC's response plans are bounded); a
#: deployment has far fewer.
ADDRESS_MEMO_SIZE = 256


class PacketDecodeError(Exception):
    """A frame failed structural validation while being parsed."""


class Opcode(IntEnum):
    """BTH opcodes for the Reliable Connection (RC) transport.

    Values follow the InfiniBand specification; only the subset DART's
    one-sided write path uses is listed, plus the atomics discussed in the
    paper's section 7.
    """

    RC_RDMA_WRITE_FIRST = 0x06
    RC_RDMA_WRITE_MIDDLE = 0x07
    RC_RDMA_WRITE_LAST = 0x08
    RC_RDMA_WRITE_ONLY = 0x0A
    RC_RDMA_READ_REQUEST = 0x0C
    RC_RDMA_READ_RESPONSE_ONLY = 0x10
    RC_ACKNOWLEDGE = 0x11
    RC_ATOMIC_ACKNOWLEDGE = 0x12
    RC_CMP_SWAP = 0x13
    RC_FETCH_ADD = 0x14
    UC_RDMA_WRITE_ONLY = 0x2A


#: The extension header each opcode carries after the BTH; its layout name
#: is the :class:`RoceV2Packet` attribute that holds it.
_EXTENSIONS = {
    **dict.fromkeys(
        (Opcode.RC_RDMA_WRITE_FIRST, Opcode.RC_RDMA_WRITE_ONLY,
         Opcode.RC_RDMA_READ_REQUEST, Opcode.UC_RDMA_WRITE_ONLY),
        RETH,
    ),
    **dict.fromkeys((Opcode.RC_CMP_SWAP, Opcode.RC_FETCH_ADD), ATOMIC_ETH),
    **dict.fromkeys(
        (Opcode.RC_RDMA_READ_RESPONSE_ONLY, Opcode.RC_ACKNOWLEDGE,
         Opcode.RC_ATOMIC_ACKNOWLEDGE),
        AETH,
    ),
}
_NAMED = {RETH: "a RETH", ATOMIC_ETH: "an AtomicETH", AETH: "an AETH"}


def opcode_has_reth(opcode: int) -> bool:
    """Whether ``opcode`` carries an RDMA Extended Transport Header."""
    return _EXTENSIONS.get(opcode) is RETH


def opcode_has_atomic_eth(opcode: int) -> bool:
    """Whether ``opcode`` carries an Atomic Extended Transport Header."""
    return _EXTENSIONS.get(opcode) is ATOMIC_ETH


def opcode_has_aeth(opcode: int) -> bool:
    """Whether ``opcode`` carries an ACK Extended Transport Header."""
    return _EXTENSIONS.get(opcode) is AETH


@lru_cache(maxsize=ADDRESS_MEMO_SIZE)
def _mac_bytes(mac: str) -> bytes:
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address {mac!r}")
    return bytes(int(part, 16) for part in parts)


@lru_cache(maxsize=ADDRESS_MEMO_SIZE)
def _mac_text(data: bytes) -> str:
    return ":".join(f"{byte:02x}" for byte in data)


def _mac_str(data: bytes) -> str:
    return _mac_text(bytes(data))  # any bytes-like slice; the memo needs a hashable


@lru_cache(maxsize=ADDRESS_MEMO_SIZE)
def _ipv4_bytes(address: str) -> bytes:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {address!r}")
    return bytes(int(part) for part in parts)


@lru_cache(maxsize=ADDRESS_MEMO_SIZE)
def _ipv4_text(data: bytes) -> str:
    return ".".join(str(byte) for byte in data)


def _ipv4_str(data: bytes) -> str:
    return _ipv4_text(bytes(data))


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum over ``data``."""
    if len(data) % 2:
        data = data + b"\x00"  # a copy: the IPv4 packer passes its bytearray
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class EthernetHeader:
    """Ethernet II header."""

    dst_mac: str = "ff:ff:ff:ff:ff:ff"
    src_mac: str = "00:00:00:00:00:00"
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = ETHERNET.size

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return _ETH.pack(
            _mac_bytes(self.dst_mac), _mac_bytes(self.src_mac), self.ethertype
        )

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated Ethernet header")
        dst, src, ethertype = _ETH.unpack_from(data)
        return cls(dst_mac=_mac_str(dst), src_mac=_mac_str(src), ethertype=ethertype)


@dataclass
class Ipv4Header:
    """IPv4 header (no options)."""

    src_ip: str = "0.0.0.0"
    dst_ip: str = "0.0.0.0"
    total_length: int = 0
    ttl: int = 64
    protocol: int = IP_PROTO_UDP
    dscp_ecn: int = 0
    identification: int = 0
    flags_fragment: int = 0x4000  # don't-fragment

    LENGTH = IPV4.size

    def pack(self, checksum: Optional[int] = None) -> bytes:
        """Serialise to wire bytes."""
        header = bytearray(
            _IPV4.pack(
                IPV4_VERSION_IHL,
                self.dscp_ecn,
                self.total_length,
                self.identification,
                self.flags_fragment,
                self.ttl,
                self.protocol,
                0,
                _ipv4_bytes(self.src_ip),
                _ipv4_bytes(self.dst_ip),
            )
        )
        if checksum is None:
            checksum = internet_checksum(header)
        _IPV4_CHECKSUM.pack_into(header, _IPV4_CHECKSUM_AT, checksum)
        return bytes(header)

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4Header":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated IPv4 header")
        version_ihl = data[0]
        if version_ihl != IPV4_VERSION_IHL:
            raise PacketDecodeError(
                f"unsupported IPv4 version/IHL byte {version_ihl:#x}"
            )
        (
            _,
            dscp_ecn,
            total_length,
            identification,
            flags_fragment,
            ttl,
            protocol,
            _checksum,
            src,
            dst,
        ) = _IPV4.unpack_from(data)
        return cls(
            src_ip=_ipv4_str(src),
            dst_ip=_ipv4_str(dst),
            total_length=total_length,
            ttl=ttl,
            protocol=protocol,
            dscp_ecn=dscp_ecn,
            identification=identification,
            flags_fragment=flags_fragment,
        )


@dataclass
class UdpHeader:
    """UDP header; RoCEv2 uses destination port 4791."""

    src_port: int = 0
    dst_port: int = ROCEV2_UDP_PORT
    length: int = 0
    checksum: int = 0  # RoCEv2 senders commonly emit 0 (checksum disabled)

    LENGTH = UDP.size

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return _UDP.pack(self.src_port, self.dst_port, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated UDP header")
        src_port, dst_port, length, checksum = _UDP.unpack_from(data)
        return cls(src_port=src_port, dst_port=dst_port, length=length, checksum=checksum)


@dataclass
class Bth:
    """Base Transport Header."""

    opcode: int = int(Opcode.RC_RDMA_WRITE_ONLY)
    solicited: bool = False
    mig_req: bool = False
    pad_count: int = 0
    partition_key: int = 0xFFFF
    dest_qp: int = 0
    ack_request: bool = False
    psn: int = 0

    LENGTH = BTH.size

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        flags = (
            (int(self.solicited) << 7)
            | (int(self.mig_req) << 6)
            | ((self.pad_count & 0x3) << 4)
            # transport header version (TVer) = 0 in low nibble
        )
        if not 0 <= self.dest_qp < (1 << 24):
            raise ValueError(f"dest_qp {self.dest_qp} does not fit in 24 bits")
        if not 0 <= self.psn < (1 << 24):
            raise ValueError(f"psn {self.psn} does not fit in 24 bits")
        return _BTH.pack(
            self.opcode & 0xFF,
            flags,
            self.partition_key,
            0,  # resv8a -- masked in the iCRC
            int(self.dest_qp).to_bytes(_DEST_QP_BYTES, "big"),
            int(self.ack_request) << 7,
            int(self.psn).to_bytes(_PSN_BYTES, "big"),
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Bth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated BTH")
        opcode, flags, pkey, _resv, dest_qp, ack, psn = _BTH.unpack_from(data)
        return cls(
            opcode=opcode,
            solicited=bool(flags & 0x80),
            mig_req=bool(flags & 0x40),
            pad_count=(flags >> 4) & 0x3,
            partition_key=pkey,
            dest_qp=int.from_bytes(dest_qp, "big"),
            ack_request=bool(ack >> 7),
            psn=int.from_bytes(psn, "big"),
        )


@dataclass
class Reth:
    """RDMA Extended Transport Header (WRITE / READ requests)."""

    virtual_address: int = 0
    rkey: int = 0
    dma_length: int = 0

    LENGTH = RETH.size

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return _RETH.pack(self.virtual_address, self.rkey, self.dma_length)

    @classmethod
    def unpack(cls, data: bytes) -> "Reth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated RETH")
        virtual_address, rkey, dma_length = _RETH.unpack_from(data)
        return cls(virtual_address=virtual_address, rkey=rkey, dma_length=dma_length)


@dataclass
class AtomicEth:
    """Atomic Extended Transport Header (FETCH_ADD / CMP_SWAP)."""

    virtual_address: int = 0
    rkey: int = 0
    swap_add: int = 0
    compare: int = 0

    LENGTH = ATOMIC_ETH.size

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return _ATOMIC_ETH.pack(
            self.virtual_address, self.rkey, self.swap_add, self.compare
        )

    @classmethod
    def unpack(cls, data: bytes) -> "AtomicEth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated AtomicETH")
        virtual_address, rkey, swap_add, compare = _ATOMIC_ETH.unpack_from(data)
        return cls(
            virtual_address=virtual_address,
            rkey=rkey,
            swap_add=swap_add,
            compare=compare,
        )


@dataclass
class Aeth:
    """ACK Extended Transport Header (read responses / ACKs).

    ``syndrome`` encodes ACK/NAK and credits; 0 is a plain ACK.  ``msn``
    is the responder's 24-bit message sequence number.
    """

    syndrome: int = 0
    msn: int = 0

    LENGTH = AETH.size

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        if not 0 <= self.msn < (1 << 24):
            raise ValueError(f"msn {self.msn} does not fit in 24 bits")
        return _AETH.pack(self.syndrome & 0xFF, int(self.msn).to_bytes(_MSN_BYTES, "big"))

    @classmethod
    def unpack(cls, data: bytes) -> "Aeth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated AETH")
        syndrome, msn = _AETH.unpack_from(data)
        return cls(syndrome=syndrome, msn=int.from_bytes(msn, "big"))


_ICRC_PREFIX = b"\xff" * ICRC_PREFIX_BYTES


def _icrc_of_wire(covered: bytes) -> int:
    """RoCEv2 invariant CRC of ``covered``: the wire bytes of a frame from
    the IPv4 header up to (not including) the iCRC itself.

    Per the RoCEv2 annex, the iCRC is a CRC-32 (Ethernet polynomial,
    zlib's ``crc32``) over:

    - 8 bytes of ``0xFF`` standing in for the masked LRH/GRH fields,
    - the IPv4 header with DSCP/ECN, TTL and header-checksum bytes set to
      ``0xFF`` (these mutate in flight),
    - the UDP header with its checksum set to ``0xFF``,
    - the BTH with the ``resv8a`` byte set to ``0xFF``,
    - every byte after the BTH,

    and every other bit *as transmitted*, reserved ones included.  This is
    the scalar twin of :func:`repro.rdma.frames.icrc_rows`: the same mask
    over the same bytes, so both granularities accept the same frames.
    """
    return zlib.crc32(_icrc_image(covered))


def _icrc_image(covered: bytes) -> bytearray:
    """The bytes :func:`_icrc_of_wire` CRCs: the 0xFF prefix, then ``covered``
    (a frame from the IPv4 header on, at least up to the BTH's PSN) with its
    masked columns forced to 0xFF.  zlib chains a CRC across pieces, so a
    leading piece's CRC can seed the rest's."""
    image = bytearray(_ICRC_PREFIX)
    image += covered
    for column in ICRC_MASKED_COLUMNS:
        image[column] = 0xFF
    return image


def compute_icrc(
    ipv4: Ipv4Header, udp: UdpHeader, bth: Bth, after_bth: bytes
) -> int:
    """The iCRC a frame built from these headers carries (see
    :func:`_icrc_of_wire`), as an integer; the wire order is little-endian
    and :meth:`RoceV2Packet.pack` handles it.
    """
    return _icrc_of_wire(ipv4.pack() + udp.pack() + bth.pack() + after_bth)


@dataclass
class RoceV2Packet:
    """A full RoCEv2 frame as emitted by a DART switch.

    ``reth`` xor ``atomic_eth`` is present depending on the opcode;
    ``payload`` is the DMA payload for WRITE opcodes and empty for atomics.
    """

    eth: EthernetHeader = field(default_factory=EthernetHeader)
    ipv4: Ipv4Header = field(default_factory=Ipv4Header)
    udp: UdpHeader = field(default_factory=UdpHeader)
    bth: Bth = field(default_factory=Bth)
    reth: Optional[Reth] = None
    atomic_eth: Optional[AtomicEth] = None
    aeth: Optional["Aeth"] = None
    payload: bytes = b""

    def _after_bth(self) -> bytes:
        extension = _EXTENSIONS.get(self.bth.opcode)
        if extension is None:
            return self.payload
        header = getattr(self, extension.name)
        if header is None:
            raise ValueError(f"opcode {self.bth.opcode:#x} requires {_NAMED[extension]} header")
        return header.pack() + self.payload

    def pack(self) -> bytes:
        """Serialise to wire bytes, computing lengths, checksums and iCRC."""
        after_bth = self._after_bth()
        udp_payload_len = Bth.LENGTH + len(after_bth) + ICRC.size
        self.udp.length = UdpHeader.LENGTH + udp_payload_len
        self.ipv4.total_length = Ipv4Header.LENGTH + self.udp.length
        covered = self.ipv4.pack() + self.udp.pack() + self.bth.pack() + after_bth
        return self.eth.pack() + covered + _ICRC.pack(_icrc_of_wire(covered))

    @classmethod
    def unpack(cls, data: bytes, validate_icrc: bool = True) -> "RoceV2Packet":
        """Parse wire bytes; raises :class:`PacketDecodeError` on corruption.

        The iCRC is validated over the *received* bytes
        (:func:`_icrc_of_wire` of IPv4 header up to the iCRC), never over re-packed
        parsed headers: a bit the dataclasses do not model (the BTH TVer
        nibble, the reserved bits beside AckReq) is covered as it arrived,
        which is the annex's rule and what ``frames.icrc_rows`` does for
        the columnar NIC.
        """
        size = len(data)
        (
            dst_mac, src_mac, ethertype, version_ihl, dscp_ecn, total_length, identification,
            flags_fragment, ttl, protocol, _checksum, src_ip, dst_ip, src_port, dst_port,
            udp_length, udp_checksum, opcode, flags, partition_key, _resv8a, dest_qp,
            ack_request, psn,
        ) = _FIXED.unpack_from(data if size >= _EXT_OFF else bytes(data).ljust(_EXT_OFF, b"\0"))
        # A short frame was zero-filled above; each length test guards the
        # checks after it, so it fails exactly where the header it cuts does.
        if size < _IP_OFF:
            raise PacketDecodeError("truncated Ethernet header")
        if ethertype != ETHERTYPE_IPV4:
            raise PacketDecodeError(f"not IPv4 (ethertype {ethertype:#x})")
        if size < _UDP_OFF:
            raise PacketDecodeError("truncated IPv4 header")
        if version_ihl != IPV4_VERSION_IHL:
            raise PacketDecodeError(f"unsupported IPv4 version/IHL byte {version_ihl:#x}")
        if protocol != IP_PROTO_UDP:
            raise PacketDecodeError(f"not UDP (protocol {protocol})")
        if size < _BTH_OFF:
            raise PacketDecodeError("truncated UDP header")
        if dst_port != ROCEV2_UDP_PORT:
            raise PacketDecodeError(f"not RoCEv2 (UDP port {dst_port})")
        if size < _EXT_OFF:
            raise PacketDecodeError("truncated BTH")

        end = _IP_OFF + total_length
        if end > size or end - ICRC.size < _EXT_OFF:
            raise PacketDecodeError("IPv4 total length inconsistent with frame")
        after_bth = data[_EXT_OFF : end - ICRC.size]
        (wire_icrc,) = _ICRC.unpack_from(data, end - ICRC.size)

        if validate_icrc:
            expected = _icrc_of_wire(data[_IP_OFF : end - ICRC.size])
            if wire_icrc != expected:
                raise PacketDecodeError(
                    f"iCRC mismatch: wire {wire_icrc:#010x}, computed {expected:#010x}"
                )

        reth = atomic_eth = aeth = None
        extension = _EXTENSIONS.get(opcode)
        if extension is RETH:
            reth = Reth.unpack(after_bth)
        elif extension is ATOMIC_ETH:
            atomic_eth = AtomicEth.unpack(after_bth)
        elif extension is AETH:
            aeth = Aeth.unpack(after_bth)
        return cls(
            EthernetHeader(_mac_text(dst_mac), _mac_text(src_mac), ethertype),
            Ipv4Header(
                _ipv4_text(src_ip), _ipv4_text(dst_ip), total_length, ttl, protocol,
                dscp_ecn, identification, flags_fragment,
            ),
            UdpHeader(src_port, dst_port, udp_length, udp_checksum),
            Bth(
                opcode, bool(flags & 0x80), bool(flags & 0x40), (flags >> 4) & 0x3,
                partition_key, int.from_bytes(dest_qp, "big"), bool(ack_request >> 7),
                int.from_bytes(psn, "big"),
            ),
            reth,
            atomic_eth,
            aeth,
            after_bth[extension.size if extension else 0 :],
        )

    @property
    def wire_length(self) -> int:
        """Frame length on the wire in bytes."""
        extension = _EXTENSIONS.get(self.bth.opcode)
        return (extension.end if extension else _EXT_OFF) + len(self.payload) + ICRC.size


# ---------------------------------------------------------------------------
# Header plans: what a receiver decodes once per header shape
# ---------------------------------------------------------------------------

#: The header fields a :func:`header_plan` depends on, besides the frame's
#: length: what ``unpack`` checks before the iCRC, and the QP.  No per-frame
#: field is one: not ``udp.src_port`` (a switch stamps ECMP entropy there
#: per report), the PSN, the extension header, the payload or the iCRC.
PLAN_FIELDS = (
    "eth.ethertype", "ipv4.version_ihl", "ipv4.total_length", "ipv4.protocol",
    "udp.dst_port", "bth.opcode", "bth.dest_qp",
)
#: A plan's key: those fields and the ones the iCRC masks, in wire order.
_PLAN_KEY = picker(*sorted(PLAN_FIELDS + ICRC_MASKED_FIELDS, key=lambda name: span(name)[0]))
_PLANS: Dict[tuple, tuple] = {}
_PSN_AT = span("bth.psn")[0]
#: The CRC of the iCRC image's 0xFF prefix: a frame's own bytes chain from it.
_ICRC_SEED = zlib.crc32(_ICRC_PREFIX)


def header_plan(frame) -> tuple:
    """``(opcode, dest_qp, end, read, cut, intact)`` of ``frame``'s header,
    memoised on the bytes it depends on: the end of its IPv4 datagram, its
    field reader, its payload's start and the CRC of an intact frame's bytes
    from IPv4 through iCRC (one per key: DESIGN.md, "Header plans").  A miss
    runs ``unpack``'s structural checks (a failure raises, never memoised)
    and the image-built iCRC.
    """
    size = len(frame)
    # Shorter frames cannot hold a BTH: unpack raises before the key is needed.
    key = (size, _PLAN_KEY.unpack_from(frame)) if size >= _EXT_OFF else None
    plan = _PLANS.get(key)
    if plan is None:
        packet = RoceV2Packet.unpack(frame, validate_icrc=False)
        opcode, end = packet.bth.opcode, _IP_OFF + packet.ipv4.total_length
        covered, extension = frame[_IP_OFF : end - ICRC.size], _EXTENSIONS.get(opcode)
        # The PSN and a request header's fields in one read (no receiver acts on an AETH's).
        request = extension.fields if extension in (RETH, ATOMIC_ETH) else ()
        read = packer("bth.psn", *(f"{extension.name}.{field.name}" for field in request))
        if len(_PLANS) >= ADDRESS_MEMO_SIZE:
            _PLANS.clear()
        plan = _PLANS[key] = (
            opcode, packet.bth.dest_qp, end, read.unpack_from,
            extension.end if extension else _EXT_OFF,
            zlib.crc32(_ICRC.pack(_icrc_of_wire(covered)), zlib.crc32(covered, _ICRC_SEED)),
        )
    return plan


def decode_frame(frame) -> Optional[tuple]:
    """``(opcode, dest_qp, psn, fields, payload)`` of a frame that passes
    every check ``unpack`` makes, its iCRC included, else None; ``fields``
    is the PSN's bytes, then any RETH or AtomicETH fields.  On a plan hit:
    one key read, one ``crc32``, one compare and one field read.
    """
    size = len(frame)
    plan = _PLANS.get((size, _PLAN_KEY.unpack_from(frame)) if size >= _EXT_OFF else None)
    if plan is None:
        try:
            plan = header_plan(frame)
        except PacketDecodeError:
            return None
    opcode, dest_qp, end, read, cut, intact = plan
    if zlib.crc32(frame[_IP_OFF:end], _ICRC_SEED) != intact:
        return None
    fields = read(frame, _PSN_AT)
    return opcode, dest_qp, int.from_bytes(fields[0], "big"), fields, frame[cut : end - ICRC.size]
