"""ReportBatch: a whole batch of telemetry reports as one columnar object.

The scalar datapath moves one Python object per report (and one dataclass
per frame) through switch -> fabric -> NIC -> region; at DART's target
rates that object churn dominates everything else.  The columnar datapath
instead resolves a batch of ``(key, value)`` items into parallel numpy
columns once -- collector IDs, checksums, per-copy slot indexes and the
encoded slot payload matrix -- and hands that single object down the
stack.  Every column is bit-identical to what the scalar path derives for
the same items (the byte-equivalence tests pin this), so the wire-format
contract survives the representation change.

The keys are folded once, here, by
:func:`~repro.hashing.hash_family.fold_keys` -- itself a matrix pass over
the batch -- and everything derived from the folded lanes is vectorised
via :meth:`~repro.core.addressing.DartAddressing.resolve_folded`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Tuple

import numpy as np

from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.hashing.hash_family import Key, fold_keys, pad_rows


class ReportBatch:
    """Columnar representation of ``n`` resolved telemetry reports.

    Attributes
    ----------
    collector_ids:
        ``uint64[n]`` -- the collector role holding all copies of report i.
    checksums:
        ``uint64[n]`` -- the b-bit key checksum stored in each slot.
    slot_indexes:
        ``uint64[redundancy, n]`` -- row ``c`` holds copy ``c``'s slot
        index for every report.
    payloads:
        ``uint8[n, slot_bytes]`` -- the encoded slot payload (big-endian
        checksum bytes followed by the zero-padded value), byte-identical
        to ``SlotCodec.encode`` per row.
    """

    __slots__ = ("config", "collector_ids", "checksums", "slot_indexes", "payloads")

    def __init__(
        self,
        config: DartConfig,
        collector_ids: np.ndarray,
        checksums: np.ndarray,
        slot_indexes: np.ndarray,
        payloads: np.ndarray,
    ) -> None:
        self.config = config
        self.collector_ids = collector_ids
        self.checksums = checksums
        self.slot_indexes = slot_indexes
        self.payloads = payloads

    @property
    def count(self) -> int:
        """Number of reports in the batch."""
        return len(self.collector_ids)

    def __repr__(self) -> str:
        return (
            f"ReportBatch(count={self.count}, "
            f"redundancy={self.slot_indexes.shape[0]}, "
            f"slot_bytes={self.payloads.shape[1]})"
        )

    @classmethod
    def from_items(
        cls,
        addressing: DartAddressing,
        items: Iterable[Tuple[Key, bytes]],
    ) -> "ReportBatch":
        """Resolve ``(key, value)`` items into one columnar batch.

        Validation matches the scalar path: oversize values raise the same
        ``ValueError`` the slot codec raises, before anything is emitted.
        """
        items = list(items) if not isinstance(items, (list, tuple)) else items
        keys = list(map(itemgetter(0), items))
        values = list(map(itemgetter(1), items))
        config, n = addressing.config, len(keys)
        value_bytes = config.layout.value_bytes
        checksum_bytes = config.layout.checksum_bytes
        lengths = np.fromiter(map(len, values), dtype=np.int64, count=n)
        if n and lengths.max() > value_bytes:
            raise ValueError(
                f"value of {lengths[lengths > value_bytes][0]} bytes exceeds "
                f"layout value size {value_bytes}"
            )
        lanes = fold_keys(keys)
        collector_ids, checksums, slot_indexes = addressing.resolve_folded(lanes)
        payloads = np.empty((n, checksum_bytes + value_bytes), dtype=np.uint8)
        # Big-endian checksum bytes: view the u64 column as 8 bytes per row
        # and keep the low `checksum_bytes` of them.
        checksum_matrix = checksums.astype(">u8").view(np.uint8).reshape(n, 8)
        payloads[:, :checksum_bytes] = checksum_matrix[:, 8 - checksum_bytes :]
        payloads[:, checksum_bytes:] = pad_rows(b"".join(values), lengths, value_bytes)
        return cls(config, collector_ids, checksums, slot_indexes, payloads)
