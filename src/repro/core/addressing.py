"""Stateless global addressing: key -> collector and key -> N slots.

This module is the heart of DART (paper section 3.1).  Every switch and
every query client evaluates the same pure functions of (config, key):

- ``collector_of(key)``  -- which collector holds *all* N copies of the key
  (an independent hash-family member reserved for collector selection);
- ``slot_index(key, n)`` -- the n-th redundant slot inside that collector's
  region, for n in [0, N).

No state, no coordination, no per-switch regions: collisions between keys
are expected and handled probabilistically by redundancy plus checksums.

The expensive part -- byte-encoding the key and folding it into a 64-bit
lane -- happens once per key, here or in the caller's
:func:`~repro.hashing.hash_family.fold_keys`; the collector, the N slots
and the checksum are all cheap mixes of that lane, so lanes (not keys) are
what the layers below an entry point pass each other.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.core.config import DartConfig
from repro.hashing.checksum import CHECKSUM_FUNCTION_INDEX
from repro.hashing.hash_family import Key, fold_key, splitmix64

#: Hash-family member reserved for the key -> collector mapping.  Slot
#: addressing uses members [0, N) and the checksum uses its own reserved
#: index, so collector selection gets a distinct constant.
COLLECTOR_FUNCTION_INDEX = 0x40000000

#: Shortest lane run resolved as one array pass, and whose slots a served
#: query folds as one matrix.  Measured (DESIGN.md, "The run-length cuts"):
#: resolving and folding a run costs ~60 us as arrays whatever its length,
#: ~10 us a lane scalar; level at 5 lanes, the arrays ahead from 6.
_ARRAY_MIN_LANES = 6


class ResolvedKey(NamedTuple):
    """Everything addressing derives from one key, computed in one pass.

    One byte encoding and one fold per key instead of one per hash-family
    member; the collector, checksum and all N slot indexes are read off
    this record.
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
        # The members a lane is resolved under, each seed pre-mixed once
        # (what ``hash_folded`` finishes a lane with): collector, checksum,
        # then copies 0..N-1.
        member_seed = self._family.member_seed
        self._collector_seed = member_seed(COLLECTOR_FUNCTION_INDEX)
        self._checksum_seed = self._checksum.family.member_seed(CHECKSUM_FUNCTION_INDEX)
        self._checksum_mask = (1 << self._checksum.bits) - 1
        self._slot_seeds = tuple(map(member_seed, range(config.redundancy)))

    def __repr__(self) -> str:
        return f"DartAddressing({self.config!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DartAddressing) and other.config == self.config

    def __hash__(self) -> int:
        return hash(("DartAddressing", self.config))

    # ------------------------------------------------------------------
    # Key interface: one fold, then the lane interface
    # ------------------------------------------------------------------

    def resolve(self, key: Key) -> ResolvedKey:
        """Resolve collector, checksum and all N slots with one key fold."""
        return self.resolve_lane(fold_key(key))

    def collector_of(self, key: Key) -> int:
        """Collector ID in [0, num_collectors) holding all copies of ``key``."""
        return self.resolve(key).collector_id

    def slot_index(self, key: Key, copy_index: int) -> int:
        """Slot index of copy ``copy_index`` within the collector's region."""
        if not 0 <= copy_index < self.config.redundancy:
            raise ValueError(
                f"copy_index {copy_index} outside [0, {self.config.redundancy})"
            )
        return self.resolve(key).slot_indexes[copy_index]

    def checksum_of(self, key: Key) -> int:
        """The b-bit key checksum stored in each slot."""
        return self.resolve(key).checksum

    def slot_address(self, base_address: int, slot_index: int) -> int:
        """Virtual memory address of ``slot_index`` in a region at ``base_address``."""
        if not 0 <= slot_index < self.config.slots_per_collector:
            raise ValueError(
                f"slot_index {slot_index} outside "
                f"[0, {self.config.slots_per_collector})"
            )
        return base_address + slot_index * self.config.slot_bytes

    # ------------------------------------------------------------------
    # Lane interface: everything below a fold
    # ------------------------------------------------------------------

    def resolve_lane(self, lane: int) -> ResolvedKey:
        """:meth:`resolve` from a :func:`~repro.hashing.hash_family.fold_key` lane:
        ``hash_folded`` under each bound member seed, then reduced."""
        config = self.config
        slots = config.slots_per_collector
        return ResolvedKey(
            splitmix64(lane ^ self._collector_seed) % config.num_collectors,
            splitmix64(lane ^ self._checksum_seed) & self._checksum_mask,
            tuple([splitmix64(lane ^ seed) % slots for seed in self._slot_seeds]),
        )

    def resolve_folded(
        self, folded: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve a whole batch of pre-folded key lanes at once.

        ``folded`` is a ``uint64`` array of :func:`~repro.hashing.hash_family.fold_key`
        lanes.  Returns ``uint64`` arrays ``(collector_ids, checksums,
        slot_indexes)`` where ``slot_indexes`` has shape ``(redundancy, n)``
        -- row ``n`` holds copy ``n``'s slot index for every key.  Every
        value is bit-identical to the scalar :meth:`resolve` on the
        original keys (property-tested); this is what lets the columnar
        datapath keep the wire-format equality contract.  Short runs are
        resolved lane by lane, as in :meth:`collectors_folded`.
        """
        config = self.config
        if len(folded) < _ARRAY_MIN_LANES:
            rows = [
                (entry.collector_id, entry.checksum, *entry.slot_indexes)
                for entry in map(self.resolve_lane, folded.tolist())
            ]
            table = np.array(rows, dtype=np.uint64).reshape(-1, 2 + config.redundancy).T
            return table[0], table[1], table[2:]
        hashes = self._family.hash_folded_array(
            folded, (COLLECTOR_FUNCTION_INDEX, *range(config.redundancy))
        )
        collector_ids = hashes[0] % np.uint64(config.num_collectors)
        slots = hashes[1:] % np.uint64(config.slots_per_collector)
        checksums = self._checksum.compute_folded_array(folded)
        return collector_ids, checksums, slots

    def collectors_folded(self, lanes: np.ndarray) -> List[int]:
        """The collector role of every lane of a run (what a planner groups by).

        Short runs mix lane by lane, longer ones in one array pass; the
        values are the same either way.
        """
        count = self.config.num_collectors
        if len(lanes) < _ARRAY_MIN_LANES:
            mix = self._family.hash_folded
            return [
                mix(lane, COLLECTOR_FUNCTION_INDEX) % count for lane in lanes.tolist()
            ]
        hashes = self._family.hash_folded_array(lanes, COLLECTOR_FUNCTION_INDEX)
        return (hashes % np.uint64(count)).tolist()
