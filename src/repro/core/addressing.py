"""Stateless global addressing: key -> collector and key -> N slots.

This module is the heart of DART (paper section 3.1).  Every switch and
every query client evaluates the same pure functions of (config, key):

- ``collector_of(key)``  -- which collector holds *all* N copies of the key
  (an independent hash-family member reserved for collector selection);
- ``slot_index(key, n)`` -- the n-th redundant slot inside that collector's
  region, for n in [0, N).

No state, no coordination, no per-switch regions: collisions between keys
are expected and handled probabilistically by redundancy plus checksums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.config import DartConfig
from repro.hashing.hash_family import Key, fold_key

#: Hash-family member reserved for the key -> collector mapping.  Slot
#: addressing uses members [0, N) and the checksum uses its own reserved
#: index, so collector selection gets a distinct constant.
COLLECTOR_FUNCTION_INDEX = 0x40000000


@dataclass(frozen=True)
class SlotLocation:
    """A fully resolved storage location for one copy of a key."""

    collector_id: int
    slot_index: int
    copy_index: int  # n in [0, N)


@dataclass(frozen=True)
class ResolvedKey:
    """Everything addressing derives from one key, computed in one pass.

    The batched write path resolves each key once -- one byte encoding and
    one fold instead of one per hash-family member -- and reads the
    collector, checksum and all N slot indexes off this record.  Values are
    bit-identical to the scalar ``collector_of`` / ``checksum_of`` /
    ``slot_index`` calls (property-tested).
    """

    collector_id: int
    checksum: int
    slot_indexes: Tuple[int, ...]  # indexed by copy n in [0, N)


class DartAddressing:
    """Pure key-to-location mapping for a :class:`DartConfig`."""

    def __init__(self, config: DartConfig) -> None:
        self.config = config
        self._family = config.hash_family()
        self._checksum = config.key_checksum()

    def __repr__(self) -> str:
        return f"DartAddressing({self.config!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DartAddressing) and other.config == self.config

    def __hash__(self) -> int:
        return hash(("DartAddressing", self.config))

    # ------------------------------------------------------------------
    # Scalar interface (switches, query clients)
    # ------------------------------------------------------------------

    def collector_of(self, key: Key) -> int:
        """Collector ID in [0, num_collectors) holding all copies of ``key``."""
        return self._family.hash_key_mod(
            key, COLLECTOR_FUNCTION_INDEX, self.config.num_collectors
        )

    def slot_index(self, key: Key, copy_index: int) -> int:
        """Slot index of copy ``copy_index`` within the collector's region."""
        if not 0 <= copy_index < self.config.redundancy:
            raise ValueError(
                f"copy_index {copy_index} outside [0, {self.config.redundancy})"
            )
        return self._family.hash_key_mod(
            key, copy_index, self.config.slots_per_collector
        )

    def checksum_of(self, key: Key) -> int:
        """The b-bit key checksum stored in each slot."""
        return self._checksum.compute(key)

    def resolve(self, key: Key) -> ResolvedKey:
        """Resolve collector, checksum and all N slots with one key fold.

        The per-key form of :meth:`resolve_folded` (which the columnar
        batch path uses): the scalar methods each re-encode and re-fold
        the key, so a full report costs N+2 folds; this costs exactly one.
        """
        folded = fold_key(key)
        family = self._family
        config = self.config
        return ResolvedKey(
            collector_id=family.hash_folded(folded, COLLECTOR_FUNCTION_INDEX)
            % config.num_collectors,
            checksum=self._checksum.compute_folded(folded),
            slot_indexes=tuple(
                family.hash_folded(folded, n) % config.slots_per_collector
                for n in range(config.redundancy)
            ),
        )

    def locate(self, key: Key) -> List[SlotLocation]:
        """All N storage locations of ``key`` (same collector by design)."""
        collector = self.collector_of(key)
        return [
            SlotLocation(
                collector_id=collector,
                slot_index=self.slot_index(key, n),
                copy_index=n,
            )
            for n in range(self.config.redundancy)
        ]

    def slot_address(self, base_address: int, slot_index: int) -> int:
        """Virtual memory address of ``slot_index`` in a region at ``base_address``."""
        if not 0 <= slot_index < self.config.slots_per_collector:
            raise ValueError(
                f"slot_index {slot_index} outside "
                f"[0, {self.config.slots_per_collector})"
            )
        return base_address + slot_index * self.config.slot_bytes

    # ------------------------------------------------------------------
    # Vectorised interface (statistical simulator)
    # ------------------------------------------------------------------

    def collectors_of_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised collector selection for integer key identities."""
        return self._family.hash_array_mod(
            keys, COLLECTOR_FUNCTION_INDEX, self.config.num_collectors
        )

    def slot_indexes_array(self, keys: np.ndarray, copy_index: int) -> np.ndarray:
        """Vectorised slot indexes of copy ``copy_index`` for integer keys."""
        if not 0 <= copy_index < self.config.redundancy:
            raise ValueError(
                f"copy_index {copy_index} outside [0, {self.config.redundancy})"
            )
        return self._family.hash_array_mod(
            keys, copy_index, self.config.slots_per_collector
        )

    def checksums_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised checksums for integer key identities."""
        return self._checksum.compute_array(keys)

    # ------------------------------------------------------------------
    # Columnar interface (bit-exact batch resolution)
    # ------------------------------------------------------------------

    def resolve_folded(
        self, folded: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve a whole batch of pre-folded key lanes at once.

        ``folded`` is a ``uint64`` array of :func:`~repro.hashing.hash_family.fold_key`
        lanes.  Returns ``(collector_ids, checksums, slot_indexes)`` where
        ``slot_indexes`` has shape ``(redundancy, n)`` -- row ``n`` holds
        copy ``n``'s slot index for every key.  Unlike the simulator-only
        ``*_array`` methods above, every value is bit-identical to the
        scalar :meth:`resolve` on the original keys (property-tested);
        this is what lets the columnar datapath keep the wire-format
        equality contract.
        """
        config = self.config
        hashes = self._family.hash_folded_array(
            folded, (COLLECTOR_FUNCTION_INDEX, *range(config.redundancy))
        )
        collector_ids = hashes[0] % np.uint64(config.num_collectors)
        slots = hashes[1:] % np.uint64(config.slots_per_collector)
        checksums = self._checksum.compute_folded_array(folded)
        return collector_ids, checksums, slots
