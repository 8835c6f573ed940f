"""The RoCEv2 wire layout, written down once.

A frame the DART switch crafts (paper section 6) is::

    Ethernet | IPv4 | UDP | BTH | RETH or AtomicETH or AETH | payload | iCRC

and this module is the only place in ``repro`` that states a field's
offset or a header's width.  Each header is a field table; everything
else that has to know the format derives it from here: the
``struct.Struct`` formats :mod:`repro.rdma.packets` packs with, the
field writers a frame plan stamps with, the column offsets and frame
widths :mod:`repro.rdma.frames` exports, the bytes the invariant CRC
masks (one set for the scalar and the vector iCRC), the fields a
:func:`~repro.rdma.packets.header_plan` is keyed on and the request
fields a READ response reflects.  The P4 model
(:mod:`repro.switch.p4`) and ``tests/reference_codec.py`` deliberately
keep their own copies: they are the oracles this one is checked against.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Dict, List, NamedTuple, Tuple

#: IANA-assigned UDP destination port identifying RoCEv2.
ROCEV2_UDP_PORT = 4791
ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17
#: IPv4 version 4 with a five-word header (no options), as one byte.
IPV4_VERSION_IHL = 0x45

#: ``struct`` codes of the integer widths it has one for; any other width
#: (MAC addresses, the 24-bit QP / PSN / MSN) packs as a byte string.
_INTEGER_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class Field(NamedTuple):
    """One header field: ``offset`` from the header's first byte and
    ``width``, both in bytes, plus the ``struct`` code it packs as."""

    name: str
    offset: int
    width: int
    code: str


class Header:
    """A fixed-size header: its fields in wire order and its frame offset.

    ``fields`` are ``(name, width)`` or ``(name, width, code)`` in wire
    order; offsets accumulate from them.  ``offset`` is where the header
    starts in a frame (negative: from the end, for the iCRC trailer).
    """

    def __init__(
        self, name: str, offset: int, *fields: tuple, byte_order: str = ">"
    ) -> None:
        self.name = name
        self.offset = offset
        laid: List[Field] = []
        cursor = 0
        for field_name, width, *code in fields:
            laid.append(
                Field(
                    field_name,
                    cursor,
                    width,
                    code[0] if code else _INTEGER_CODES.get(width, f"{width}s"),
                )
            )
            cursor += width
        self.fields: Tuple[Field, ...] = tuple(laid)
        self.size = cursor
        #: Packs / unpacks the whole header, one value per field.
        self.struct = struct.Struct(byte_order + "".join(f.code for f in laid))

    def __getitem__(self, name: str) -> Field:
        for candidate in self.fields:
            if candidate.name == name:
                return candidate
        raise KeyError(f"{self.name} has no field {name!r}")

    @property
    def end(self) -> int:
        """Frame offset of the first byte after this header."""
        return self.offset + self.size


ETHERNET = Header("eth", 0, ("dst_mac", 6), ("src_mac", 6), ("ethertype", 2))
IPV4 = Header(
    "ipv4",
    ETHERNET.end,
    ("version_ihl", 1),
    ("dscp_ecn", 1),
    ("total_length", 2),
    ("identification", 2),
    ("flags_fragment", 2),
    ("ttl", 1),
    ("protocol", 1),
    ("checksum", 2),
    ("src_ip", 4, "4s"),
    ("dst_ip", 4, "4s"),
)
UDP = Header(
    "udp", IPV4.end, ("src_port", 2), ("dst_port", 2), ("length", 2), ("checksum", 2)
)
BTH = Header(
    "bth",
    UDP.end,
    ("opcode", 1),
    ("flags", 1),  # solicited, MigReq, pad count, TVer
    ("partition_key", 2),
    ("resv8a", 1),
    ("dest_qp", 3),
    ("ack_request", 1),  # AckReq in the top bit, seven reserved bits
    ("psn", 3),
)
# One extension header follows the BTH, chosen by the opcode.
RETH = Header("reth", BTH.end, ("virtual_address", 8), ("rkey", 4), ("dma_length", 4))
ATOMIC_ETH = Header(
    "atomic_eth",
    BTH.end,
    ("virtual_address", 8),
    ("rkey", 4),
    ("swap_add", 8),
    ("compare", 8),
)
AETH = Header("aeth", BTH.end, ("syndrome", 1), ("msn", 3))
#: The trailer: the last bytes of every frame, and the one little-endian field.
ICRC = Header("icrc", -4, ("value", 4), byte_order="<")

HEADERS = (ETHERNET, IPV4, UDP, BTH, RETH, ATOMIC_ETH, AETH, ICRC)

_FIELDS: Dict[str, Tuple[Header, Field]] = {
    f"{header.name}.{field.name}": (header, field)
    for header in HEADERS[:-1]
    for field in header.fields
}
#: ``"header.field"`` -> the frame columns ``[start, stop)`` it occupies.
_SPANS: Dict[str, Tuple[int, int]] = {
    name: (header.offset + field.offset, header.offset + field.offset + field.width)
    for name, (header, field) in _FIELDS.items()
}
#: Every ``"header.field"`` name :func:`span` knows, in wire order.
FIELD_NAMES: Tuple[str, ...] = tuple(_SPANS)


def span(name: str) -> Tuple[int, int]:
    """Frame columns ``[start, stop)`` of the field named ``"header.field"``."""
    return _SPANS[name]


def columns(*names: str) -> List[int]:
    """Every frame column the named fields occupy, in the order given."""
    return [column for name in names for column in range(*_SPANS[name])]


def packer(*names: str) -> struct.Struct:
    """Packs one value per named field, back to back in the order given."""
    return struct.Struct(">" + "".join(_FIELDS[name][1].code for name in names))


@functools.lru_cache(maxsize=None)
def writer(*names: str) -> Callable[..., None]:
    """``write(frame, values)``, compiled once into straight-line code: each
    of ``values`` into its named ``"header.field"`` of ``frame``.  A value the
    field cannot hold raises what its header's ``pack`` raises: ``ValueError``
    for a field ``struct`` packs as bytes (a MAC, an IPv4 address, the 24-bit
    QP / PSN / MSN), ``struct.error`` for the others."""
    scope: Dict[str, object] = {"_unfit": _unfit, "names": names}
    lines = []
    for n, name in enumerate(names):
        (start, stop), field = _SPANS[name], packer(name)
        if field.format.endswith("s"):
            lines.append(f"frame[{start}:{stop}] = v{n}.to_bytes({stop - start}, 'big')")
        else:
            scope[f"pack{n}"] = field.pack_into
            lines.append(f"pack{n}(frame, {start}, v{n})")
    source = ["def write(frame, values):"]
    if names:
        source.append("    " + ", ".join(f"v{n}" for n in range(len(names))) + ", = values")
    source += ["    try:"] + [f"        {line}" for line in lines or ["pass"]]
    source += ["    except OverflowError:", "        raise _unfit(names, values) from None"]
    exec("\n".join(source), scope)
    return scope["write"]


def _unfit(names: Tuple[str, ...], values: Tuple[int, ...]) -> ValueError:
    """The error for the first value a bytes-packed field cannot hold."""
    for name, value in zip(names, values):
        start, stop = _SPANS[name]
        if packer(name).format.endswith("s") and not 0 <= value < 1 << 8 * (stop - start):
            return ValueError(f"{name.partition('.')[2]} {value} does not fit in {8 * (stop - start)} bits")


def picker(*names: str) -> struct.Struct:
    """Unpacks the named fields (in wire order) straight from a frame,
    skipping the bytes between them."""
    codes, cursor = [], 0
    for name in names:
        start, stop = _SPANS[name]
        codes.append(f"{start - cursor}x{_FIELDS[name][1].code}")
        cursor = stop
    return struct.Struct(">" + "".join(codes))


#: Bytes of 0xFF the iCRC image opens with, standing in for the masked
#: LRH/GRH fields of the InfiniBand original.
ICRC_PREFIX_BYTES = 8

#: The fields the RoCEv2 annex masks in the iCRC (forces to 0xFF in its
#: image) because they mutate in flight.
ICRC_MASKED_FIELDS = (
    "ipv4.dscp_ecn", "ipv4.ttl", "ipv4.checksum", "udp.checksum", "bth.resv8a"
)
#: Columns of the iCRC image -- the prefix, then the frame from the IPv4
#: header up to the iCRC -- that :data:`ICRC_MASKED_FIELDS` occupy.
ICRC_MASKED_COLUMNS = tuple(
    ICRC_PREFIX_BYTES + column - IPV4.offset for column in columns(*ICRC_MASKED_FIELDS)
)
