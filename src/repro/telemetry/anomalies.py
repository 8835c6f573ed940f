"""Flow-anomaly backend: (flow 5-tuple, anomaly ID) -> time + event data.

Fifth row of paper Table 1, modelled on flow-event telemetry (Zhou et
al. [56], the paper's source for per-switch report rates): switches detect
per-flow events -- path change, latency spike, packet drop, congestion --
and report each under the flow plus an anomaly-kind identifier.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from repro.telemetry.backends import TelemetryBackend, TelemetryRecord


class AnomalyKind(IntEnum):
    """Event kinds from flow-event telemetry systems."""

    PATH_CHANGE = 1
    LATENCY_SPIKE = 2
    PACKET_DROP = 3
    CONGESTION = 4
    BLACKHOLE = 5


@dataclass(frozen=True)
class AnomalyEvent:
    """One detected event: when, where, and a kind-specific detail word."""

    timestamp_ns: int
    switch_id: int
    kind: AnomalyKind
    detail: int  # e.g. latency in ns, dropped bytes, new next-hop

    _FORMAT = ">QIII"

    def pack(self) -> bytes:
        """Pack into the fixed-size slot value bytes."""
        return struct.pack(
            self._FORMAT,
            self.timestamp_ns & 0xFFFFFFFFFFFFFFFF,
            self.switch_id & 0xFFFFFFFF,
            int(self.kind),
            self.detail & 0xFFFFFFFF,
        )

    @classmethod
    def unpack(cls, value: bytes) -> "AnomalyEvent":
        """Inverse of :meth:`pack`."""
        timestamp, switch_id, kind, detail = struct.unpack(
            cls._FORMAT, value[: struct.calcsize(cls._FORMAT)]
        )
        return cls(
            timestamp_ns=timestamp,
            switch_id=switch_id,
            kind=AnomalyKind(kind),
            detail=detail,
        )


class FlowAnomalyBackend(TelemetryBackend):
    """Event-triggered per-flow anomaly reporting."""

    name = "flow anomalies"

    def encode_value(self, measurement: AnomalyEvent) -> bytes:
        """Pack a anomaly event into slot-value bytes."""
        return measurement.pack()

    def decode_value(self, value: bytes) -> AnomalyEvent:
        """Unpack slot-value bytes into a anomaly event."""
        return AnomalyEvent.unpack(value)

    @staticmethod
    def key_for(five_tuple: tuple, kind: AnomalyKind):
        """Composite key: the flow plus the anomaly identifier."""
        return (five_tuple, int(kind))

    def report_event(
        self, five_tuple: tuple, event: AnomalyEvent
    ) -> TelemetryRecord:
        """A switch reporting one detected event."""
        return self.report(self.key_for(five_tuple, event.kind), event)

    def last_event(
        self, five_tuple: tuple, kind: AnomalyKind
    ) -> Optional[AnomalyEvent]:
        """The most recent stored event of ``kind`` for the flow."""
        return self.query(self.key_for(five_tuple, kind))
