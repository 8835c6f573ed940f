"""Table-driven CRC implementations.

Two parts of the reproduced system are CRC-based:

1. The Tofino switch ASIC exposes CRC polynomials as its hashing extern; the
   DART prototype (paper section 6) uses "the CRC extern" to map ``(n, key)``
   to a collector ID and memory address.
2. RoCEv2 packets end with a 32-bit *invariant CRC* (iCRC) computed over the
   packet with volatile fields masked out; the DART switch must generate it
   and the RDMA NIC validates it.

The implementations below are classic reflected table-driven CRCs.  They are
deliberately dependency-free and byte-exact so that tests can pin known
check values ("123456789" vectors from the CRC catalogue).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import Tuple

import numpy as np


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


@dataclass(frozen=True)
class CrcAlgorithm:
    """A parameterised CRC algorithm in the Rocksoft model.

    Attributes mirror the standard CRC catalogue fields so that any
    polynomial a Tofino hash extern can be configured with is expressible.
    """

    name: str
    width: int
    poly: int
    init: int
    reflect_in: bool
    reflect_out: bool
    xor_out: int
    check: int  # CRC of b"123456789", for self-tests

    def __post_init__(self) -> None:
        if self.width < 8 or self.width > 64:
            raise ValueError(f"unsupported CRC width {self.width}")
        object.__setattr__(
            self, "_table", _build_table(self.poly, self.width, self.reflect_in)
        )
        # This parameterisation *is* zlib's CRC-32: one C call replaces the
        # table loop in compute() and, per row, in compute_rows().
        object.__setattr__(
            self,
            "_is_zlib",
            self.width == 32
            and self.poly == 0x04C11DB7
            and self.init == 0xFFFFFFFF
            and self.xor_out == 0xFFFFFFFF
            and self.reflect_in
            and self.reflect_out,
        )

    @property
    def mask(self) -> int:
        """Bit mask of the CRC width."""
        return (1 << self.width) - 1

    def compute(self, data: bytes, initial: int | None = None) -> int:
        """CRC of ``data``; ``initial`` allows incremental computation.

        When ``initial`` is given it must be a previous :meth:`compute`
        result; the final XOR is undone/redone so that
        ``compute(a + b) == compute(b, initial=compute(a))``.
        """
        if self._is_zlib:  # type: ignore[attr-defined]
            # zlib chains on the finalised value, exactly this contract.
            return zlib.crc32(data, 0 if initial is None else initial)
        table = self._table  # type: ignore[attr-defined]
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

    def compute_rows(self, rows: np.ndarray, initial: int | None = None) -> np.ndarray:
        """CRC of every row of a ``uint8`` matrix at once.

        ``rows`` has shape ``(n, width)``; the result is a ``uint32`` array
        of ``n`` CRCs, bit-identical to calling :meth:`compute` on each
        row's bytes with the same ``initial`` (so a shared prefix can be
        CRC'd once and chained into every row).  The iCRC polynomial (the
        only one batches use) is one ``zlib.crc32`` mapped over the rows as
        ``bytes`` records, all in C; any other algorithm, and a zero-width
        matrix, loops the scalar :meth:`compute`.
        """
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D byte matrix, got shape {rows.shape}")
        count, width = rows.shape
        if not (self._is_zlib and width):  # type: ignore[attr-defined]
            return np.fromiter(
                (self.compute(row.tobytes(), initial) for row in rows),
                dtype=np.uint32,
                count=count,
            )
        # One void record per row: ``tolist`` hands back one ``bytes`` each.
        records = np.ascontiguousarray(rows).view(f"V{width}").ravel().tolist()
        seed = repeat(0 if initial is None else initial)
        return np.fromiter(map(zlib.crc32, records, seed), dtype=np.uint32, count=count)

    def verify(self) -> bool:
        """Check the algorithm against its catalogue check value."""
        return self.compute(b"123456789") == self.check


# Catalogue entries used throughout the system.
CRC8 = CrcAlgorithm(
    name="CRC-8",
    width=8,
    poly=0x07,
    init=0x00,
    reflect_in=False,
    reflect_out=False,
    xor_out=0x00,
    check=0xF4,
)

CRC16_CCITT = CrcAlgorithm(
    name="CRC-16/CCITT-FALSE",
    width=16,
    poly=0x1021,
    init=0xFFFF,
    reflect_in=False,
    reflect_out=False,
    xor_out=0x0000,
    check=0x29B1,
)

#: The Ethernet / RoCEv2 iCRC polynomial (reflected CRC-32).
CRC32 = CrcAlgorithm(
    name="CRC-32",
    width=32,
    poly=0x04C11DB7,
    init=0xFFFFFFFF,
    reflect_in=True,
    reflect_out=True,
    xor_out=0xFFFFFFFF,
    check=0xCBF43926,
)

#: CRC-32C (Castagnoli), the other polynomial Tofino commonly exposes.
CRC32C = CrcAlgorithm(
    name="CRC-32C",
    width=32,
    poly=0x1EDC6F41,
    init=0xFFFFFFFF,
    reflect_in=True,
    reflect_out=True,
    xor_out=0xFFFFFFFF,
    check=0xE3069283,
)


def crc8(data: bytes) -> int:
    """CRC-8 of ``data`` (plain 0x07 polynomial)."""
    return CRC8.compute(data)


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of ``data``."""
    return CRC16_CCITT.compute(data)


def crc32(data: bytes) -> int:
    """Standard reflected CRC-32 of ``data`` (Ethernet / RoCEv2 iCRC)."""
    return CRC32.compute(data)


def crc32c(data: bytes) -> int:
    """CRC-32C (Castagnoli) of ``data``."""
    return CRC32C.compute(data)
