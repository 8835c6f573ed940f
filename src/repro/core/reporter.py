"""The DART write path: telemetry (key, value) -> N redundant slot writes.

A reporter is *stateless* with respect to keys: given the shared config it
deterministically expands one telemetry report into N slot writes, each a
(collector, slot index, encoded slot bytes) triple.  The switch model turns
each write into one RoCEv2 packet (the RDMA standard allows only one memory
instruction per packet -- paper sections 3.1 and 5.1); in-process stores
apply them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.hashing.hash_family import Key


@dataclass(frozen=True)
class SlotWrite:
    """One redundant copy of a telemetry report, ready to be stored."""

    collector_id: int
    slot_index: int
    copy_index: int
    payload: bytes  # encoded slot: checksum || value

    @property
    def payload_bytes(self) -> int:
        """Encoded slot size in bytes."""
        return len(self.payload)


class DartReporter:
    """Expands telemetry reports into redundant slot writes.

    Parameters
    ----------
    config:
        The shared deployment configuration.
    redundancy:
        Optional override of ``config.redundancy`` -- used by the dynamic-N
        controller (paper section 5.1 future work) to shrink or grow the
        number of copies without changing addressing for existing data.
        Must not exceed ``config.redundancy`` because queries read exactly
        ``config.redundancy`` slots.
    """

    def __init__(self, config: DartConfig, redundancy: Optional[int] = None) -> None:
        self.config = config
        self.addressing = DartAddressing(config)
        self._codec = config.slot_codec()
        if redundancy is None:
            redundancy = config.redundancy
        if not 1 <= redundancy <= config.redundancy:
            raise ValueError(
                f"effective redundancy {redundancy} must be in "
                f"[1, {config.redundancy}]"
            )
        self.redundancy = redundancy
        registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        labels = registry.instance_labels("DartReporter")
        #: Telemetry reports expanded into slot writes.
        self.c_reports = registry.counter("reporter_reports", labels=labels)
        #: Redundant slot writes generated.
        self.c_writes = registry.counter("reporter_writes", labels=labels)

    @property
    def reports_generated(self) -> int:
        """Telemetry reports expanded into slot writes (registry-backed)."""
        return self.c_reports.value

    @property
    def writes_generated(self) -> int:
        """Redundant slot writes generated (registry-backed)."""
        return self.c_writes.value

    def __repr__(self) -> str:
        return (
            f"DartReporter(config={self.config!r}, redundancy={self.redundancy})"
        )

    def writes_for(self, key: Key, value: bytes) -> List[SlotWrite]:
        """All redundant slot writes for one telemetry report.

        Every copy carries identical payload; only the slot index differs.
        All copies target the same collector (paper section 3.1: queries
        then run locally on one collector without inter-collector traffic).
        """
        resolved = self.addressing.resolve(key)
        payload = self._codec.encode(resolved.checksum, value)
        writes = [
            SlotWrite(
                collector_id=resolved.collector_id,
                slot_index=resolved.slot_indexes[n],
                copy_index=n,
                payload=payload,
            )
            for n in range(self.redundancy)
        ]
        self.c_reports.inc()
        self.c_writes.inc(len(writes))
        tracer = self._tracer
        if tracer.enabled:
            trace_id = tracer.begin("report", key=repr(key))
            tracer.span(
                trace_id, "reporter.writes_for", f"copies={len(writes)}"
            )
            tracer.end(trace_id)
        return writes

