"""Models of the Tofino externs the DART P4 program uses.

Paper section 6 names each of these explicitly: a register array for
per-collector PSN counters, the native random number generator for picking
which of the N storage locations a report targets, and I2E
(ingress-to-egress) mirroring to inject truncated report clones into the
egress pipeline.  The CRC extern is not modelled here: address hashing
binds to the deployment's :class:`~repro.hashing.hash_family.HashFamily`
(as ``switch/p4``'s ``HashOf`` does), and the RoCEv2 iCRC is zlib's CRC-32
in :mod:`repro.rdma.packets`.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro import obs


class RegisterArray:
    """A stateful register array, as exposed to P4 programs.

    Tofino registers are fixed-width cells supporting read-modify-write in
    the data plane; the DART program keeps one PSN counter per collector.
    """

    def __init__(self, size: int, width_bits: int = 32, name: str = "reg") -> None:
        if size < 1:
            raise ValueError(f"register array size must be >= 1, got {size}")
        if width_bits not in (8, 16, 32, 64):
            raise ValueError(f"unsupported register width {width_bits}")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._cells: List[int] = [0] * size

    def __repr__(self) -> str:
        return f"RegisterArray(name={self.name!r}, size={self.size}, width={self.width_bits})"

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(
                f"register index {index} outside [0, {self.size}) in {self.name}"
            )

    def read(self, index: int) -> int:
        """Read one register cell."""
        self._check_index(index)
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        """Write one register cell (masked to the cell width)."""
        self._check_index(index)
        self._cells[index] = value & self._mask

    def read_and_increment(self, index: int) -> int:
        """Atomic read-then-increment -- the PSN counter's access pattern."""
        self._check_index(index)
        value = self._cells[index]
        self._cells[index] = (value + 1) & self._mask
        return value

    def incrementer(self, index: int) -> Callable[[int], int]:
        """Cell ``index``'s read-then-add of a count, its index checked once, here."""
        self._check_index(index)
        cells, mask = self._cells, self._mask

        def read_and_add(count: int) -> int:
            value = cells[index]
            cells[index] = (value + count) & mask
            return value

        return read_and_add

    @property
    def sram_bytes(self) -> int:
        """SRAM consumed by the array (cells only, ignoring overhead)."""
        return self.size * (self.width_bits // 8)


class TofinoRng:
    """The switch-native random number generator.

    Deterministically seeded so experiments are reproducible; the hardware
    equivalent is a free-running LFSR.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def next(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)`` -- picks n in [0, N)."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return self._rng.randrange(bound)


class MirrorSession:
    """An I2E mirror session: truncated packet clones into egress.

    When telemetry must be reported, the DART program triggers an
    ingress-to-egress mirror; the clone carries the raw telemetry data and
    key and is rewritten into a DART report in egress (paper section 6).
    Clone counts are registry-backed (``switch_mirror_clones``), with the
    pre-registry ``clones_emitted`` attribute kept as a live view.
    """

    def __init__(
        self, session_id: int, truncate_to: Optional[int] = None
    ) -> None:
        self.session_id = session_id
        self.truncate_to = truncate_to
        registry = obs.get_registry()
        #: Clones produced by this session.
        self.c_clones = registry.counter(
            "switch_mirror_clones",
            labels=registry.instance_labels("MirrorSession")
            + (("session", str(session_id)),),
        )

    def __repr__(self) -> str:
        return (
            f"MirrorSession(session_id={self.session_id}, "
            f"truncate_to={self.truncate_to}, "
            f"clones_emitted={self.clones_emitted})"
        )

    @property
    def clones_emitted(self) -> int:
        """Clones produced by this session (registry-backed)."""
        return self.c_clones.value

    def clone(self, packet: bytes) -> bytes:
        """Produce the (possibly truncated) clone of ``packet``."""
        self.c_clones.inc()
        if self.truncate_to is not None and len(packet) > self.truncate_to:
            return packet[: self.truncate_to]
        return packet
