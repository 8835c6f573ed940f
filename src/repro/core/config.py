"""Network-wide DART configuration.

A DART deployment is defined by a handful of constants that the control
plane distributes to every switch and that operators use when querying:
the hash-family seed, the redundancy factor N, the slot layout (checksum
width + value size) and the collector fleet geometry.  Any two components
constructed from equal configs are guaranteed to agree on every address
and checksum -- the coordination-free property at the heart of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.hashing.checksum import KeyChecksum
from repro.hashing.hash_family import HashFamily
from repro.mem.slots import SlotCodec, SlotLayout


@dataclass(frozen=True)
class DartConfig:
    """The shared configuration of a DART deployment.

    Parameters
    ----------
    redundancy:
        N -- number of slot copies per key (paper default suggestion: 2).
    checksum_bits:
        b -- key-checksum width in bits (paper default suggestion: 32).
    value_bytes:
        Telemetry value size per slot (20 bytes = 160 bits in Figure 4).
    slots_per_collector:
        Number of slots in each collector's registered region.
    num_collectors:
        Size of the collector fleet; keys are spread over collectors by an
        independent hash, but all N copies of one key live on one collector
        (paper section 3.1).
    seed:
        Hash-family seed; the single global constant behind all mappings.
    """

    redundancy: int = 2
    checksum_bits: int = 32
    value_bytes: int = 20
    slots_per_collector: int = 1 << 16
    num_collectors: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {self.redundancy}")
        if not 1 <= self.checksum_bits <= 64:
            raise ValueError(
                f"checksum_bits must be in [1, 64], got {self.checksum_bits}"
            )
        if self.value_bytes < 1:
            raise ValueError(f"value_bytes must be >= 1, got {self.value_bytes}")
        if self.slots_per_collector < 1:
            raise ValueError(
                f"slots_per_collector must be >= 1, got {self.slots_per_collector}"
            )
        if self.num_collectors < 1:
            raise ValueError(
                f"num_collectors must be >= 1, got {self.num_collectors}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    # ------------------------------------------------------------------
    # Derived components (constructed on demand; all pure functions of
    # the frozen fields, so equal configs yield equal components).  Layout
    # and slot size are read per report: cached outside the compared fields.
    # ------------------------------------------------------------------

    @cached_property
    def layout(self) -> SlotLayout:
        """The slot layout implied by the checksum and value sizes."""
        return SlotLayout(
            checksum_bits=self.checksum_bits, value_bytes=self.value_bytes
        )

    @cached_property
    def slot_bytes(self) -> int:
        """Size of one slot in bytes (checksum + value)."""
        return self.layout.slot_bytes

    @property
    def region_bytes(self) -> int:
        """Registered-region size each collector must provide."""
        return self.slots_per_collector * self.slot_bytes

    @property
    def total_slots(self) -> int:
        """Fleet-wide slot count M."""
        return self.slots_per_collector * self.num_collectors

    def hash_family(self) -> HashFamily:
        """The global hash family all components share."""
        return HashFamily(seed=self.seed)

    def key_checksum(self) -> KeyChecksum:
        """The b-bit key checksum function."""
        return KeyChecksum(bits=self.checksum_bits, family=self.hash_family())

    def slot_codec(self) -> SlotCodec:
        """Encoder/decoder for this deployment's slot layout."""
        return SlotCodec(self.layout)

    def load_factor(self, live_keys: int) -> float:
        """α -- live telemetry keys per available slot (paper section 4)."""
        if live_keys < 0:
            raise ValueError("live_keys must be non-negative")
        return live_keys / self.total_slots

    def bytes_per_key(self) -> float:
        """Average storage a key consumes when written with N redundancy."""
        return self.redundancy * self.slot_bytes

    @classmethod
    def for_memory_budget(
        cls,
        memory_bytes: int,
        *,
        redundancy: int = 2,
        checksum_bits: int = 32,
        value_bytes: int = 20,
        num_collectors: int = 1,
        seed: int = 0,
    ) -> "DartConfig":
        """Build a config from a total collector-memory budget in bytes.

        This mirrors how the paper presents experiments ("100 million flows
        sharing 3 GB"): the operator provisions memory, and the slot count
        follows from the layout.
        """
        layout = SlotLayout(checksum_bits=checksum_bits, value_bytes=value_bytes)
        per_collector = memory_bytes // num_collectors
        slots = layout.slots_in(per_collector)
        if slots < 1:
            raise ValueError(
                f"memory budget {memory_bytes} too small for even one slot "
                f"of {layout.slot_bytes} bytes per collector"
            )
        return cls(
            redundancy=redundancy,
            checksum_bits=checksum_bits,
            value_bytes=value_bytes,
            slots_per_collector=slots,
            num_collectors=num_collectors,
            seed=seed,
        )
