"""Test-only oracle: the scalar codecs as they were before they went to C speed.

Copied verbatim from the commit that preceded the zlib iCRC / one-pass
pack/unpack change (``0d21556``): ``repro/rdma/packets.py`` from its first
constant to its last line, and the table-loop body of
``CrcAlgorithm.compute`` (as :func:`table_crc`, taking the algorithm as
its first argument and looking its table up in a memo).  Nothing under
``src/`` imports this; ``tests/test_rdma_packets.py`` diffs the live codecs
against it, and ``tests/test_granularities.py`` every frame and batch body.
The one place the live decoder is *meant* to differ is spelled out in the
former: this ``unpack`` checksums re-packed parsed headers, so it treats
the BTH TVer nibble and the reserved bits beside AckReq as zero whatever
arrived.

Do not tidy this file -- its value is that it does not change.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import Optional, Tuple


class _CRC32_PARAMETERS:  # CRC-32 in the Rocksoft model, the fields table_crc reads
    width, poly, init, xor_out, mask = 32, 0x04C11DB7, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF
    reflect_in = reflect_out = True
    check = 0xCBF43926  # CRC of b"123456789"


def _reflect(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``."""
    reflected = 0
    for _ in range(width):
        reflected = (reflected << 1) | (value & 1)
        value >>= 1
    return reflected


def _build_table(poly: int, width: int, reflected: bool) -> Tuple[int, ...]:
    """Precompute the 256-entry CRC table for one byte of input."""
    mask = (1 << width) - 1
    top_bit = 1 << (width - 1)
    table = []
    for byte in range(256):
        if reflected:
            crc = _reflect(byte, 8) << (width - 8)
        else:
            crc = byte << (width - 8)
        for _ in range(8):
            if crc & top_bit:
                crc = ((crc << 1) ^ poly) & mask
            else:
                crc = (crc << 1) & mask
        if reflected:
            crc = _reflect(crc, width)
        table.append(crc)
    return tuple(table)


_table_of = lru_cache(maxsize=None)(_build_table)  # the parent built it once per algorithm


def table_crc(self, data: bytes, initial: int | None = None) -> int:
    """CRC of ``data``; ``initial`` allows incremental computation.

    When ``initial`` is given it must be a previous :meth:`compute`
    result; the final XOR is undone/redone so that
    ``compute(a + b) == compute(b, initial=compute(a))``.
    """
    table = _table_of(self.poly, self.width, self.reflect_in)
    if initial is None:
        crc = self.init
    else:
        crc = (initial ^ self.xor_out) & self.mask
        if self.reflect_in != self.reflect_out:
            crc = _reflect(crc, self.width)
    if self.reflect_in:
        for byte in data:
            crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    else:
        shift = self.width - 8
        for byte in data:
            crc = (table[((crc >> shift) ^ byte) & 0xFF] ^ (crc << 8)) & self.mask
    if self.reflect_in != self.reflect_out:
        crc = _reflect(crc, self.width)
    return (crc ^ self.xor_out) & self.mask


def crc32(data: bytes) -> int:
    """Standard reflected CRC-32 of ``data``, by the table loop."""
    return table_crc(_CRC32_PARAMETERS, data)


#: IANA-assigned UDP destination port identifying RoCEv2.
ROCEV2_UDP_PORT = 4791

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17


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


#: Opcodes that are followed by a RETH header.
_RETH_OPCODES = frozenset(
    {
        Opcode.RC_RDMA_WRITE_FIRST,
        Opcode.RC_RDMA_WRITE_ONLY,
        Opcode.RC_RDMA_READ_REQUEST,
        Opcode.UC_RDMA_WRITE_ONLY,
    }
)

#: Opcodes that are followed by an AtomicETH header.
_ATOMIC_OPCODES = frozenset({Opcode.RC_CMP_SWAP, Opcode.RC_FETCH_ADD})

#: Opcodes that are followed by an AETH header.
_AETH_OPCODES = frozenset(
    {
        Opcode.RC_RDMA_READ_RESPONSE_ONLY,
        Opcode.RC_ACKNOWLEDGE,
        Opcode.RC_ATOMIC_ACKNOWLEDGE,
    }
)


def opcode_has_reth(opcode: int) -> bool:
    """Whether ``opcode`` carries an RDMA Extended Transport Header."""
    return opcode in _RETH_OPCODES


def opcode_has_atomic_eth(opcode: int) -> bool:
    """Whether ``opcode`` carries an Atomic Extended Transport Header."""
    return opcode in _ATOMIC_OPCODES


def opcode_has_aeth(opcode: int) -> bool:
    """Whether ``opcode`` carries an ACK Extended Transport Header."""
    return opcode in _AETH_OPCODES


def _mac_bytes(mac: str) -> bytes:
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address {mac!r}")
    return bytes(int(part, 16) for part in parts)


def _mac_str(data: bytes) -> str:
    return ":".join(f"{byte:02x}" for byte in data)


def _ipv4_bytes(address: str) -> bytes:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {address!r}")
    encoded = bytes(int(part) for part in parts)
    return encoded


def _ipv4_str(data: bytes) -> str:
    return ".".join(str(byte) for byte in data)


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum over ``data``."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack(">H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst_mac: str = "ff:ff:ff:ff:ff:ff"
    src_mac: str = "00:00:00:00:00:00"
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 14

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return (
            _mac_bytes(self.dst_mac)
            + _mac_bytes(self.src_mac)
            + struct.pack(">H", self.ethertype)
        )

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated Ethernet header")
        return cls(
            dst_mac=_mac_str(data[0:6]),
            src_mac=_mac_str(data[6:12]),
            ethertype=struct.unpack(">H", data[12:14])[0],
        )


@dataclass
class Ipv4Header:
    """20-byte IPv4 header (no options)."""

    src_ip: str = "0.0.0.0"
    dst_ip: str = "0.0.0.0"
    total_length: int = 0
    ttl: int = 64
    protocol: int = IP_PROTO_UDP
    dscp_ecn: int = 0
    identification: int = 0
    flags_fragment: int = 0x4000  # don't-fragment

    LENGTH = 20

    def pack(self, checksum: Optional[int] = None) -> bytes:
        """Serialise to wire bytes."""
        header = struct.pack(
            ">BBHHHBBH4s4s",
            0x45,
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
        if checksum is None:
            checksum = internet_checksum(header)
        return header[:10] + struct.pack(">H", checksum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4Header":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated IPv4 header")
        version_ihl = data[0]
        if version_ihl != 0x45:
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
        ) = struct.unpack(">BBHHHBBH4s4s", data[: cls.LENGTH])
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
    """8-byte UDP header; RoCEv2 uses destination port 4791."""

    src_port: int = 0
    dst_port: int = ROCEV2_UDP_PORT
    length: int = 0
    checksum: int = 0  # RoCEv2 senders commonly emit 0 (checksum disabled)

    LENGTH = 8

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return struct.pack(
            ">HHHH", self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated UDP header")
        src_port, dst_port, length, checksum = struct.unpack(">HHHH", data[:8])
        return cls(src_port=src_port, dst_port=dst_port, length=length, checksum=checksum)


@dataclass
class Bth:
    """12-byte Base Transport Header."""

    opcode: int = int(Opcode.RC_RDMA_WRITE_ONLY)
    solicited: bool = False
    mig_req: bool = False
    pad_count: int = 0
    partition_key: int = 0xFFFF
    dest_qp: int = 0
    ack_request: bool = False
    psn: int = 0

    LENGTH = 12

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
        return struct.pack(
            ">BBHBBBBI",
            self.opcode & 0xFF,
            flags,
            self.partition_key,
            0,  # resv8a -- masked in the iCRC
            (self.dest_qp >> 16) & 0xFF,
            (self.dest_qp >> 8) & 0xFF,
            self.dest_qp & 0xFF,
            (int(self.ack_request) << 31) | self.psn,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Bth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated BTH")
        opcode, flags, pkey, _resv, qp2, qp1, qp0, last = struct.unpack(
            ">BBHBBBBI", data[: cls.LENGTH]
        )
        return cls(
            opcode=opcode,
            solicited=bool(flags & 0x80),
            mig_req=bool(flags & 0x40),
            pad_count=(flags >> 4) & 0x3,
            partition_key=pkey,
            dest_qp=(qp2 << 16) | (qp1 << 8) | qp0,
            ack_request=bool(last >> 31),
            psn=last & 0xFFFFFF,
        )


@dataclass
class Reth:
    """16-byte RDMA Extended Transport Header (WRITE / READ requests)."""

    virtual_address: int = 0
    rkey: int = 0
    dma_length: int = 0

    LENGTH = 16

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return struct.pack(">QII", self.virtual_address, self.rkey, self.dma_length)

    @classmethod
    def unpack(cls, data: bytes) -> "Reth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated RETH")
        virtual_address, rkey, dma_length = struct.unpack(">QII", data[: cls.LENGTH])
        return cls(virtual_address=virtual_address, rkey=rkey, dma_length=dma_length)


@dataclass
class AtomicEth:
    """28-byte Atomic Extended Transport Header (FETCH_ADD / CMP_SWAP)."""

    virtual_address: int = 0
    rkey: int = 0
    swap_add: int = 0
    compare: int = 0

    LENGTH = 28

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        return struct.pack(
            ">QIQQ", self.virtual_address, self.rkey, self.swap_add, self.compare
        )

    @classmethod
    def unpack(cls, data: bytes) -> "AtomicEth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated AtomicETH")
        virtual_address, rkey, swap_add, compare = struct.unpack(
            ">QIQQ", data[: cls.LENGTH]
        )
        return cls(
            virtual_address=virtual_address,
            rkey=rkey,
            swap_add=swap_add,
            compare=compare,
        )


@dataclass
class Aeth:
    """4-byte ACK Extended Transport Header (read responses / ACKs).

    ``syndrome`` encodes ACK/NAK and credits; 0 is a plain ACK.  ``msn``
    is the responder's 24-bit message sequence number.
    """

    syndrome: int = 0
    msn: int = 0

    LENGTH = 4

    def pack(self) -> bytes:
        """Serialise to wire bytes."""
        if not 0 <= self.msn < (1 << 24):
            raise ValueError(f"msn {self.msn} does not fit in 24 bits")
        return struct.pack(">I", ((self.syndrome & 0xFF) << 24) | self.msn)

    @classmethod
    def unpack(cls, data: bytes) -> "Aeth":
        """Parse wire bytes into a header instance."""
        if len(data) < cls.LENGTH:
            raise PacketDecodeError("truncated AETH")
        (word,) = struct.unpack(">I", data[: cls.LENGTH])
        return cls(syndrome=(word >> 24) & 0xFF, msn=word & 0xFFFFFF)


def compute_icrc(
    ipv4: Ipv4Header, udp: UdpHeader, bth: Bth, after_bth: bytes
) -> int:
    """RoCEv2 invariant CRC over the masked packet.

    Per the RoCEv2 annex, the iCRC is a CRC-32 (Ethernet polynomial) over:

    - 8 bytes of ``0xFF`` standing in for the masked LRH/GRH fields,
    - the IPv4 header with DSCP/ECN, TTL and header-checksum bytes set to
      ``0xFF`` (these mutate in flight),
    - the UDP header with its checksum set to ``0xFF``,
    - the BTH with the ``resv8a`` byte set to ``0xFF``,
    - every byte after the BTH up to (not including) the iCRC itself,

    with the final CRC transmitted little-endian.  This function returns the
    integer value; :meth:`RoceV2Packet.pack` handles byte order.
    """
    masked_ip = bytearray(ipv4.pack())
    masked_ip[1] = 0xFF  # DSCP/ECN
    masked_ip[8] = 0xFF  # TTL
    masked_ip[10] = 0xFF  # header checksum (2 bytes)
    masked_ip[11] = 0xFF

    masked_udp = bytearray(udp.pack())
    masked_udp[6] = 0xFF  # UDP checksum (2 bytes)
    masked_udp[7] = 0xFF

    masked_bth = bytearray(bth.pack())
    masked_bth[4] = 0xFF  # resv8a

    covered = b"\xff" * 8 + bytes(masked_ip) + bytes(masked_udp) + bytes(masked_bth)
    covered += after_bth
    return crc32(covered)


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
        parts = []
        if opcode_has_reth(self.bth.opcode):
            if self.reth is None:
                raise ValueError(
                    f"opcode {self.bth.opcode:#x} requires a RETH header"
                )
            parts.append(self.reth.pack())
        if opcode_has_atomic_eth(self.bth.opcode):
            if self.atomic_eth is None:
                raise ValueError(
                    f"opcode {self.bth.opcode:#x} requires an AtomicETH header"
                )
            parts.append(self.atomic_eth.pack())
        if opcode_has_aeth(self.bth.opcode):
            if self.aeth is None:
                raise ValueError(
                    f"opcode {self.bth.opcode:#x} requires an AETH header"
                )
            parts.append(self.aeth.pack())
        parts.append(self.payload)
        return b"".join(parts)

    def pack(self) -> bytes:
        """Serialise to wire bytes, computing lengths, checksums and iCRC."""
        after_bth = self._after_bth()
        udp_payload_len = Bth.LENGTH + len(after_bth) + 4  # + iCRC
        self.udp.length = UdpHeader.LENGTH + udp_payload_len
        self.ipv4.total_length = Ipv4Header.LENGTH + self.udp.length
        icrc = compute_icrc(self.ipv4, self.udp, self.bth, after_bth)
        return (
            self.eth.pack()
            + self.ipv4.pack()
            + self.udp.pack()
            + self.bth.pack()
            + after_bth
            + struct.pack("<I", icrc)
        )

    @classmethod
    def unpack(cls, data: bytes, validate_icrc: bool = True) -> "RoceV2Packet":
        """Parse wire bytes; raises :class:`PacketDecodeError` on corruption."""
        offset = 0
        eth = EthernetHeader.unpack(data)
        offset += EthernetHeader.LENGTH
        if eth.ethertype != ETHERTYPE_IPV4:
            raise PacketDecodeError(f"not IPv4 (ethertype {eth.ethertype:#x})")
        ipv4 = Ipv4Header.unpack(data[offset:])
        offset += Ipv4Header.LENGTH
        if ipv4.protocol != IP_PROTO_UDP:
            raise PacketDecodeError(f"not UDP (protocol {ipv4.protocol})")
        udp = UdpHeader.unpack(data[offset:])
        offset += UdpHeader.LENGTH
        if udp.dst_port != ROCEV2_UDP_PORT:
            raise PacketDecodeError(f"not RoCEv2 (UDP port {udp.dst_port})")
        bth = Bth.unpack(data[offset:])
        offset += Bth.LENGTH

        end = EthernetHeader.LENGTH + ipv4.total_length
        if end > len(data) or end - 4 < offset:
            raise PacketDecodeError("IPv4 total length inconsistent with frame")
        after_bth = data[offset : end - 4]
        (wire_icrc,) = struct.unpack("<I", data[end - 4 : end])

        if validate_icrc:
            expected = compute_icrc(ipv4, udp, bth, after_bth)
            if wire_icrc != expected:
                raise PacketDecodeError(
                    f"iCRC mismatch: wire {wire_icrc:#010x}, computed {expected:#010x}"
                )

        reth = None
        atomic_eth = None
        aeth = None
        cursor = 0
        if opcode_has_reth(bth.opcode):
            reth = Reth.unpack(after_bth)
            cursor = Reth.LENGTH
        elif opcode_has_atomic_eth(bth.opcode):
            atomic_eth = AtomicEth.unpack(after_bth)
            cursor = AtomicEth.LENGTH
        elif opcode_has_aeth(bth.opcode):
            aeth = Aeth.unpack(after_bth)
            cursor = Aeth.LENGTH
        payload = after_bth[cursor:]
        return cls(
            eth=eth,
            ipv4=ipv4,
            udp=udp,
            bth=bth,
            reth=reth,
            atomic_eth=atomic_eth,
            aeth=aeth,
            payload=payload,
        )

    @property
    def wire_length(self) -> int:
        """Frame length on the wire in bytes."""
        return len(self.pack())
