"""RDMA-over-Converged-Ethernet (RoCEv2) substrate.

The paper's collectors are ordinary servers whose RDMA NICs execute
one-sided operations crafted *by switches*.  No RDMA hardware is available
in this environment, so this package is a byte-accurate software model:

- :mod:`repro.rdma.layout` -- the wire format itself: one field table per
  header (Ethernet, IPv4, UDP, BTH, RETH, AtomicETH, AETH, iCRC), the only
  place an offset or a width is written down.
- :mod:`repro.rdma.packets` -- scalar codecs for those headers plus the
  RoCEv2 invariant CRC (iCRC), their ``struct`` formats derived from the
  layout.
- :mod:`repro.rdma.frames` -- one plan per frame shape, which stamps a
  frame or (through the template-and-patch encoder) a batch of frames as
  a pooled byte matrix.
- :mod:`repro.rdma.qp` -- queue-pair state with 24-bit packet sequence
  numbers (PSNs), mirroring the per-collector PSN registers the Tofino
  prototype keeps in SRAM.
- :mod:`repro.rdma.nic` -- an RNIC model that parses incoming frames,
  validates iCRC / rkey / QP / PSN, and executes RDMA WRITE, FETCH_ADD and
  CMP_SWAP against a registered :class:`~repro.mem.region.MemoryRegion`,
  silently dropping anything invalid (one-sided semantics: the host CPU is
  never involved).
"""

from repro.rdma.packets import (
    ROCEV2_UDP_PORT,
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
)
from repro.rdma.frames import FrameBatch, FramePool, frame_width, icrc_rows
from repro.rdma.qp import PSN_MODULUS, QueuePair, QueuePairState
from repro.rdma.nic import NicCounters, RdmaNic

__all__ = [
    "ROCEV2_UDP_PORT",
    "FrameBatch",
    "FramePool",
    "frame_width",
    "icrc_rows",
    "AtomicEth",
    "Bth",
    "EthernetHeader",
    "Ipv4Header",
    "NicCounters",
    "Opcode",
    "PacketDecodeError",
    "PSN_MODULUS",
    "QueuePair",
    "QueuePairState",
    "RdmaNic",
    "Reth",
    "RoceV2Packet",
    "UdpHeader",
    "compute_icrc",
]
