"""Slot layout: how one telemetry record is laid out in collector memory.

DART organises the registered region as a flat array of fixed-size slots.
Each slot stores the ``b``-bit key checksum followed by the telemetry value
(paper section 3.1); the key itself is *not* stored, which is what makes the
probabilistic analysis of section 4 necessary.

Figure 4's configuration -- "160-bit values with 32-bit checksums" -- is a
24-byte slot; with N=2 redundancy plus headroom that is where the paper's
"300 bytes per flow" headline budget comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SlotLayout:
    """Geometry of a slot: checksum width and value size.

    Parameters
    ----------
    checksum_bits:
        Width ``b`` of the key checksum (paper default: 32).
    value_bytes:
        Size of the telemetry value (e.g. 20 bytes for 5 hops x 32-bit
        switch IDs in INT path tracing).
    """

    checksum_bits: int = 32
    value_bytes: int = 20

    def __post_init__(self) -> None:
        if not 1 <= self.checksum_bits <= 64:
            raise ValueError(
                f"checksum_bits must be in [1, 64], got {self.checksum_bits}"
            )
        if self.value_bytes <= 0:
            raise ValueError(f"value_bytes must be positive, got {self.value_bytes}")

    @property
    def checksum_bytes(self) -> int:
        """Bytes the checksum occupies in a slot."""
        return (self.checksum_bits + 7) // 8

    @property
    def slot_bytes(self) -> int:
        """Total slot size: checksum then value, unpadded."""
        return self.checksum_bytes + self.value_bytes

    def slots_in(self, memory_bytes: int) -> int:
        """How many slots fit in ``memory_bytes`` of collector memory."""
        if memory_bytes < self.slot_bytes:
            return 0
        return memory_bytes // self.slot_bytes


class SlotCodec:
    """Encode and decode slots for a given :class:`SlotLayout`."""

    def __init__(self, layout: SlotLayout) -> None:
        self.layout = layout
        self._checksum_mask = (1 << layout.checksum_bits) - 1

    def __repr__(self) -> str:
        return f"SlotCodec({self.layout!r})"

    def encode(self, checksum: int, value: bytes) -> bytes:
        """Pack a checksum and value into slot bytes.

        The value is right-padded with zeros if shorter than the layout's
        value size; longer values are rejected (the switch pipeline truncates
        reports before this point, so an oversize value is a logic error).
        """
        layout = self.layout
        if checksum < 0 or checksum > self._checksum_mask:
            raise ValueError(
                f"checksum {checksum:#x} does not fit in {layout.checksum_bits} bits"
            )
        if len(value) > layout.value_bytes:
            raise ValueError(
                f"value of {len(value)} bytes exceeds layout value size "
                f"{layout.value_bytes}"
            )
        padded = value.ljust(layout.value_bytes, b"\x00")
        return checksum.to_bytes(layout.checksum_bytes, "big") + padded

    def decode(self, slot: bytes) -> Tuple[int, bytes]:
        """Unpack slot bytes into ``(checksum, value)``."""
        layout = self.layout
        if len(slot) != layout.slot_bytes:
            raise ValueError(
                f"slot of {len(slot)} bytes does not match layout size "
                f"{layout.slot_bytes}"
            )
        checksum = int.from_bytes(slot[: layout.checksum_bytes], "big")
        value = slot[layout.checksum_bytes :]
        return checksum & self._checksum_mask, value
