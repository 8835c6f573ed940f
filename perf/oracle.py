"""Ground truth for the benchmark: what every query should return, and where every frame went.

Three checks, all run from outside the program under test:

- :class:`Oracle` stamps each written value with its key index and a
  per-key version, remembers the latest version per key, and classifies
  every query answer ``latest / stale / empty / wrong / error``.
- :class:`SlotModel` (lossless workloads only) is a reference model of
  collector memory -- which (checksum, owner, version) each slot holds,
  driven by :meth:`DartAddressing.resolve` -- that predicts the exact
  answer of every query, so a lookup that returns ``empty`` where DART
  semantics say ``latest`` is caught even though both are legal outcomes.
- :func:`conservation_violations` asserts that every frame a fabric was
  offered is accounted for by a NIC counter.
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.fabric.impaired import ImpairedFabric

#: 20-byte value: key index, version, integrity mix, seed tag.
VALUE = struct.Struct(">IIQI")
_U64 = (1 << 64) - 1

OUTCOMES = ("latest", "stale", "empty", "wrong", "error")


def _mix(index: int, version: int) -> int:
    return (index * 0x9E3779B97F4A7C15 + version * 0xBF58476D1CE4E5B9) & _U64


class SlotModel:
    """Reference image of collector memory for lossless workloads."""

    def __init__(self, config: DartConfig, keys: Sequence[object]) -> None:
        self.keys = keys
        self.redundancy = config.redundancy
        self.slots_per_collector = config.slots_per_collector
        self.addressing = DartAddressing(config)
        self.key_slots = np.full((len(keys), config.redundancy), -1, np.int64)
        self.key_checksum = np.zeros(len(keys), np.uint64)
        self.slot_checksum = np.zeros(config.total_slots, np.uint64)
        self.slot_owner = np.full(config.total_slots, -1, np.int64)
        self.slot_version = np.zeros(config.total_slots, np.int64)

    def _learn(self, index: int) -> None:
        resolved = self.addressing.resolve(self.keys[index])
        base = resolved.collector_id * self.slots_per_collector
        self.key_slots[index] = [base + slot for slot in resolved.slot_indexes]
        self.key_checksum[index] = resolved.checksum

    def apply(self, indexes: np.ndarray, versions: np.ndarray) -> None:
        """Land a run of reports in emission order (report-major, last wins)."""
        unknown = indexes[self.key_slots[indexes, 0] < 0]
        for index in set(unknown.tolist()):
            self._learn(index)
        flat = self.key_slots[indexes].reshape(-1)
        # numpy leaves duplicate-index assignment order undefined, so keep
        # only the final write to each slot.
        _slots, first_reversed = np.unique(flat[::-1], return_index=True)
        last = len(flat) - 1 - first_reversed
        rows = last // self.redundancy
        targets = flat[last]
        self.slot_checksum[targets] = self.key_checksum[indexes[rows]]
        self.slot_owner[targets] = indexes[rows]
        self.slot_version[targets] = versions[rows]

    def predict(self, index: int) -> Optional[Tuple[int, int]]:
        """The (owner, version) a plurality query of key ``index`` returns."""
        if self.key_slots[index, 0] < 0:
            self._learn(index)
        checksum = self.key_checksum[index]
        matching = [
            (int(self.slot_owner[slot]), int(self.slot_version[slot]))
            for slot in self.key_slots[index].tolist()
            if self.slot_checksum[slot] == checksum
        ]
        if not matching:
            return None
        ranked = Counter(matching).most_common()
        if len(ranked) == 1 or ranked[0][1] > ranked[1][1]:
            return ranked[0][0]
        return None


class Oracle:
    """Latest value per key, and the verdict on every answer."""

    def __init__(
        self, keys: Sequence[object], seed: int,
        model: Optional[SlotModel] = None,
    ) -> None:
        self.keys = keys
        self.tag = seed & 0xFFFFFFFF
        self.versions = [0] * len(keys)
        #: Key indexes in first-write order (the candidate set for reads).
        self.written: List[int] = []
        self.model = model
        self.outcomes: Dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        #: Answers that differed from the slot model's prediction.
        self.mispredicted = 0

    def stamp(self, indexes: Sequence[int]) -> List[Tuple[object, bytes]]:
        """Next-version ``(key, value)`` items for a run of key indexes."""
        keys, versions, written, tag = (
            self.keys, self.versions, self.written, self.tag
        )
        pack = VALUE.pack
        items = []
        stamped = []
        for index in indexes:
            version = versions[index] + 1
            if version == 1:
                written.append(index)
            versions[index] = version
            stamped.append(version)
            items.append(
                (keys[index], pack(index, version, _mix(index, version), tag))
            )
        if self.model is not None:
            self.model.apply(
                np.asarray(indexes, np.int64), np.asarray(stamped, np.int64)
            )
        return items

    def classify(self, index: int, value: Optional[bytes]) -> str:
        """Verdict on one answer; also checks it against the slot model."""
        decoded = None
        if value is None:
            outcome = "empty"
        else:
            outcome = "wrong"
            if len(value) == VALUE.size:
                owner, version, mix, tag = VALUE.unpack(value)
                decoded = (owner, version)
                if (
                    owner == index
                    and tag == self.tag
                    and mix == _mix(owner, version)
                    and 0 < version <= self.versions[index]
                ):
                    outcome = (
                        "latest" if version == self.versions[index] else "stale"
                    )
        self.outcomes[outcome] += 1
        if self.model is not None and self.model.predict(index) != decoded:
            self.mispredicted += 1
        return outcome

    def error(self) -> None:
        """Record a query that raised or came back incomplete."""
        self.outcomes["error"] += 1

    @property
    def judged(self) -> int:
        return sum(self.outcomes.values())


def conservation_violations(planes, pools) -> List[str]:
    """Frames offered must equal frames received must equal executed + dropped.

    ``planes`` is a list of ``(name, fabric, nics)``; ``pools`` a list of
    ``(name, FramePool)``.  Call after every fabric has been flushed.
    """
    violations = []
    for name, fabric, nics in planes:
        outer = fabric.counters
        inner = fabric.delivered if isinstance(fabric, ImpairedFabric) else outer
        surviving = (
            outer.frames_offered + outer.frames_duplicated
            - outer.frames_dropped_loss
        )
        received = sum(nic.counters.frames_received for nic in nics)
        if not surviving == inner.frames_delivered == received:
            violations.append(
                f"{name}: offered+dup-loss={surviving} "
                f"delivered={inner.frames_delivered} nic_received={received}"
            )
        for position, nic in enumerate(nics):
            c = nic.counters
            accounted = (
                c.writes_executed + c.reads_executed + c.atomics_executed
                + c.frames_dropped
            )
            if accounted != c.frames_received:
                violations.append(
                    f"{name} nic {position}: received={c.frames_received} "
                    f"executed+dropped={accounted}"
                )
    for name, pool in pools:
        if pool.in_flight != 0:
            violations.append(f"{name}: {pool.in_flight} frame leases in flight")
    return violations
