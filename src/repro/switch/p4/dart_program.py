"""The DART egress pipeline, written as a P4-IR program.

This is the software twin of the paper's ~1K lines of P4_16 (section 6).
The pipeline receives the I2E mirror clone of a telemetry event --

    mirror_h { key_length : 16 }  ||  key bytes  ||  value bytes

-- and rewrites it into a complete RoCEv2 RDMA-WRITE frame:

1. ``compute_addressing``: the hash extern maps the key to a collector ID,
   a slot index for this packet's copy (intrinsic metadata ``copy_index``,
   set by the mirror/RNG), and the key checksum;
2. ``collector_lookup`` (match-action): collector ID -> RoCEv2 endpoint
   parameters, the paper's ~20 B/collector SRAM table;
3. ``advance_psn``: stateful register read-increment per collector;
4. ``craft_report``: write every header field and build the slot payload
   (checksum || value, zero-padded);
5. deparser fixups recompute lengths, the IPv4 checksum and the RoCEv2
   invariant CRC -- the jobs Tofino's checksum/CRC engines do.

:func:`build_dart_program` returns a ready :class:`P4Program`;
:func:`install_collector_entry` is its control-plane interface.  The
test-suite proves frames from this program are byte-identical to
:class:`~repro.switch.dart_switch.DartSwitch`.
"""

from __future__ import annotations

import struct

from repro.core.addressing import COLLECTOR_FUNCTION_INDEX
from repro.core.config import DartConfig
from repro.rdma.packets import (
    Bth,
    Ipv4Header,
    Opcode,
    ROCEV2_UDP_PORT,
    UdpHeader,
    compute_icrc,
    internet_checksum,
)
from repro.switch.externs import RegisterArray
from repro.switch.p4.actions import (
    Action,
    BuildPayload,
    RegisterReadIncrement,
    SetField,
    SetMeta,
    SetValid,
)
from repro.switch.p4.control import Apply, Control, Run
from repro.switch.p4.deparser import Deparser
from repro.switch.p4.expr import (
    BinOp,
    ChecksumOf,
    Const,
    ExternBindings,
    HashOf,
    Meta,
    Param,
)
from repro.switch.p4.interpreter import P4Program
from repro.switch.p4.parser import (
    ExtractFixed,
    ExtractRest,
    ExtractVar,
    P4Parser,
    ParserState,
)
from repro.switch.p4.types import HeaderType
from repro.switch.pipeline import MatchActionTable, MatchKind, TableEntry

# ----------------------------------------------------------------------
# Header types (bit layouts match repro.rdma.packets exactly)
# ----------------------------------------------------------------------

MIRROR_H = HeaderType("mirror_h", (("key_length", 16),))

ETHERNET_H = HeaderType(
    "ethernet_h",
    (("dst_addr", 48), ("src_addr", 48), ("ether_type", 16)),
)

IPV4_H = HeaderType(
    "ipv4_h",
    (
        ("version_ihl", 8),
        ("dscp_ecn", 8),
        ("total_length", 16),
        ("identification", 16),
        ("flags_fragment", 16),
        ("ttl", 8),
        ("protocol", 8),
        ("checksum", 16),
        ("src_addr", 32),
        ("dst_addr", 32),
    ),
)

UDP_H = HeaderType(
    "udp_h",
    (("src_port", 16), ("dst_port", 16), ("length", 16), ("checksum", 16)),
)

BTH_H = HeaderType(
    "bth_h",
    (
        ("opcode", 8),
        ("flags", 8),
        ("partition_key", 16),
        ("reserved", 8),
        ("dest_qp", 24),
        ("ack_psn", 32),
    ),
)

RETH_H = HeaderType(
    "reth_h",
    (("virtual_address", 64), ("rkey", 32), ("dma_length", 32)),
)

ALL_HEADERS = (MIRROR_H, ETHERNET_H, IPV4_H, UDP_H, BTH_H, RETH_H)


# ----------------------------------------------------------------------
# Address helpers (strings on the Python side, ints in the PHV)
# ----------------------------------------------------------------------

def mac_to_int(mac: str) -> int:
    """Pack a colon-separated MAC string into its 48-bit integer."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC {mac!r}")
    return int.from_bytes(bytes(int(p, 16) for p in parts), "big")


def ip_to_int(ip: str) -> int:
    """Pack a dotted-quad IPv4 string into its 32-bit integer."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {ip!r}")
    return int.from_bytes(bytes(int(p) for p in parts), "big")


def encode_mirror_packet(key_bytes: bytes, value: bytes) -> bytes:
    """Frame an I2E mirror clone the way the parser expects it."""
    if len(key_bytes) > 0xFFFF:
        raise ValueError("key too long for the mirror header")
    return struct.pack(">H", len(key_bytes)) + key_bytes + value


# ----------------------------------------------------------------------
# Deparser fixups (the checksum-engine configuration)
# ----------------------------------------------------------------------

_ETH_LEN, _IP_LEN, _UDP_LEN = 14, 20, 8


def fixup_lengths(frame: bytes, phv) -> bytes:
    """Recompute ipv4.total_length and udp.length (+4 for the iCRC)."""
    mutable = bytearray(frame)
    total_length = len(frame) - _ETH_LEN + 4
    udp_length = total_length - _IP_LEN
    struct.pack_into(">H", mutable, _ETH_LEN + 2, total_length)
    struct.pack_into(">H", mutable, _ETH_LEN + _IP_LEN + 4, udp_length)
    return bytes(mutable)


def fixup_ipv4_checksum(frame: bytes, phv) -> bytes:
    """Recompute the IPv4 header checksum over the final header bytes."""
    mutable = bytearray(frame)
    struct.pack_into(">H", mutable, _ETH_LEN + 10, 0)
    checksum = internet_checksum(bytes(mutable[_ETH_LEN : _ETH_LEN + _IP_LEN]))
    struct.pack_into(">H", mutable, _ETH_LEN + 10, checksum)
    return bytes(mutable)


def fixup_icrc(frame: bytes, phv) -> bytes:
    """Compute and append the RoCEv2 invariant CRC (little-endian)."""
    ipv4 = Ipv4Header.unpack(frame[_ETH_LEN : _ETH_LEN + _IP_LEN])
    udp_start = _ETH_LEN + _IP_LEN
    udp = UdpHeader.unpack(frame[udp_start : udp_start + _UDP_LEN])
    bth_start = udp_start + _UDP_LEN
    bth = Bth.unpack(frame[bth_start : bth_start + Bth.LENGTH])
    after_bth = frame[bth_start + Bth.LENGTH :]
    icrc = compute_icrc(ipv4, udp, bth, after_bth)
    return frame + struct.pack("<I", icrc)


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------

#: Capacity of the collector lookup table and its PSN register array
#: (``DartSwitch``'s default).
MAX_COLLECTORS = 65536


def build_dart_program(config: DartConfig, switch_id: int) -> P4Program:
    """Build the DART egress program for one switch.

    The returned program shares the deployment's global hash family and
    checksum (via extern bindings), so its addressing provably agrees with
    every other component built from the same :class:`DartConfig`.
    """
    externs = ExternBindings(
        hash_family=config.hash_family(),
        key_checksum=config.key_checksum(),
        registers={
            "psn_counters": RegisterArray(
                size=MAX_COLLECTORS, width_bits=32, name="psn_counters"
            )
        },
    )

    parser = P4Parser(
        header_types=ALL_HEADERS,
        states=(
            ParserState(
                name="parse_mirror",
                extractions=(
                    ExtractFixed("mirror_h"),
                    ExtractVar("key", length_from=("mirror_h", "key_length")),
                    ExtractRest("value"),
                ),
            ),
        ),
        start="parse_mirror",
    )

    slot_bytes = config.slot_bytes
    checksum_bytes = config.layout.checksum_bytes

    compute_addressing = Action(
        name="compute_addressing",
        primitives=(
            # P4 metadata is zero-initialised; set the fields a table miss
            # would otherwise leave undefined.
            SetMeta("base_address", Const(0)),
            SetMeta("endpoint_hit", Const(0)),
            SetMeta(
                "collector",
                HashOf(
                    "key",
                    Const(COLLECTOR_FUNCTION_INDEX),
                    Const(config.num_collectors),
                ),
            ),
            SetMeta(
                "slot",
                HashOf(
                    "key", Meta("copy_index"), Const(config.slots_per_collector)
                ),
            ),
            SetMeta("key_checksum", ChecksumOf("key")),
        ),
    )

    set_rdma_endpoint = Action(
        name="set_rdma_endpoint",
        parameters=("dst_mac", "dst_ip", "qp_number", "rkey", "base_address"),
        primitives=(
            SetField("ethernet_h", "dst_addr", Param("dst_mac")),
            SetField("ipv4_h", "dst_addr", Param("dst_ip")),
            SetField("bth_h", "dest_qp", Param("qp_number")),
            SetField("reth_h", "rkey", Param("rkey")),
            SetMeta("base_address", Param("base_address")),
            SetMeta("endpoint_hit", Const(1)),
        ),
    )

    lookup_table = MatchActionTable(
        name="collector_lookup",
        match_kinds=[MatchKind.EXACT],
        max_entries=MAX_COLLECTORS,
        entry_value_bytes=25,
    )

    advance_psn = Action(
        name="advance_psn",
        primitives=(
            RegisterReadIncrement(
                register="psn_counters",
                index=Meta("collector"),
                destination="psn",
            ),
            SetField(
                "bth_h", "ack_psn", BinOp("&", Meta("psn"), Const(0xFFFFFF))
            ),
        ),
    )

    craft_report = Action(
        name="craft_report",
        primitives=(
            # Header validity: the mirror header is consumed, the RoCEv2
            # stack is emitted.
            SetValid("mirror_h", valid=False),
            SetValid("ethernet_h"),
            SetValid("ipv4_h"),
            SetValid("udp_h"),
            SetValid("bth_h"),
            SetValid("reth_h"),
            # Ethernet
            SetField(
                "ethernet_h",
                "src_addr",
                Const(mac_to_int(_switch_mac(switch_id))),
            ),
            SetField("ethernet_h", "ether_type", Const(0x0800)),
            # IPv4 constants (lengths/checksum are deparser fixups)
            SetField("ipv4_h", "version_ihl", Const(0x45)),
            SetField("ipv4_h", "dscp_ecn", Const(0)),
            SetField("ipv4_h", "identification", Const(0)),
            SetField("ipv4_h", "flags_fragment", Const(0x4000)),
            SetField("ipv4_h", "ttl", Const(64)),
            SetField("ipv4_h", "protocol", Const(17)),
            SetField(
                "ipv4_h", "src_addr", Const(ip_to_int(_switch_ip(switch_id)))
            ),
            # UDP: ECMP-entropy source port from the key checksum
            SetField(
                "udp_h",
                "src_port",
                BinOp(
                    "|",
                    Const(0xC000),
                    BinOp("&", Meta("key_checksum"), Const(0x3FFF)),
                ),
            ),
            SetField("udp_h", "dst_port", Const(ROCEV2_UDP_PORT)),
            SetField("udp_h", "checksum", Const(0)),
            # BTH
            SetField("bth_h", "opcode", Const(int(Opcode.RC_RDMA_WRITE_ONLY))),
            SetField("bth_h", "flags", Const(0)),
            SetField("bth_h", "partition_key", Const(0xFFFF)),
            SetField("bth_h", "reserved", Const(0)),
            # RETH: virtual address = base + slot * slot_bytes
            SetField(
                "reth_h",
                "virtual_address",
                BinOp(
                    "+",
                    Meta("base_address"),
                    BinOp("*", Meta("slot"), Const(slot_bytes)),
                ),
            ),
            SetField("reth_h", "dma_length", Const(slot_bytes)),
            # Slot payload: checksum || value, padded to the slot size.
            BuildPayload(
                parts=((Meta("key_checksum"), checksum_bytes),),
                blob="value",
                pad_to=slot_bytes,
            ),
        ),
    )

    egress = Control(
        name="dart_egress",
        statements=(
            Run(compute_addressing),
            Apply(
                table=lookup_table,
                keys=(Meta("collector"),),
                actions={"set_rdma_endpoint": set_rdma_endpoint},
            ),
            Run(advance_psn),
            Run(craft_report),
        ),
    )

    deparser = Deparser(
        header_order=("ethernet_h", "ipv4_h", "udp_h", "bth_h", "reth_h"),
        fixups=(fixup_lengths, fixup_ipv4_checksum, fixup_icrc),
    )

    return P4Program(
        name="dart_egress_pipeline",
        parser=parser,
        controls=(egress,),
        deparser=deparser,
        externs=externs,
    )


def _switch_mac(switch_id: int) -> str:
    """Source MAC plan shared with :class:`DartSwitch`."""
    return (
        f"02:00:{(switch_id >> 24) & 0xFF:02x}:{(switch_id >> 16) & 0xFF:02x}:"
        f"{(switch_id >> 8) & 0xFF:02x}:{switch_id & 0xFF:02x}"
    )


def _switch_ip(switch_id: int) -> str:
    """Source IP plan shared with :class:`DartSwitch`."""
    return (
        f"172.{(switch_id >> 16) & 0x0F}.{(switch_id >> 8) & 0xFF}."
        f"{switch_id & 0xFF}"
    )


def install_collector_entry(program: P4Program, endpoint) -> None:
    """Control plane: install one collector endpoint into the program.

    ``endpoint`` is a :class:`~repro.collector.collector.CollectorEndpoint`;
    string addresses are packed to the integer forms the PHV holds.
    """
    table = program.table("collector_lookup")
    table.add_entry(
        TableEntry(
            match=(endpoint.collector_id,),
            action="set_rdma_endpoint",
            params={
                "dst_mac": mac_to_int(endpoint.mac),
                "dst_ip": ip_to_int(endpoint.ip),
                "qp_number": endpoint.qp_number,
                "rkey": endpoint.rkey,
                "base_address": endpoint.base_address,
            },
        )
    )


def process_report(
    program: P4Program, key_bytes: bytes, value: bytes, copy_index: int
) -> bytes:
    """Run one mirrored telemetry event through the program."""
    packet = encode_mirror_packet(key_bytes, value)
    return program.process(packet, metadata={"copy_index": copy_index})
