"""Common machinery for telemetry backends.

A backend adapts one measurement technique (a row of paper Table 1) to the
DART key-value semantics: it defines how its domain objects become keys and
fixed-size values, reports them into a :class:`~repro.collector.store.DartStore`,
and decodes query results back into domain objects.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional

from repro.collector.store import DartStore
from repro.core.policies import QueryResult
from repro.hashing.hash_family import Key


@dataclass(frozen=True)
class TelemetryRecord:
    """A backend-agnostic telemetry report: key, encoded value, metadata."""

    key: Key
    value: bytes
    backend: str


class TelemetryBackend(ABC):
    """Base class wiring a measurement technique to a DartStore.

    Subclasses define ``name`` plus the key/value codecs; reporting and
    querying are shared.
    """

    #: Human-readable backend name (the Table 1 row).
    name: str = "abstract"

    def __init__(self, store: DartStore) -> None:
        self.store = store
        self.reports = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(reports={self.reports})"

    @abstractmethod
    def encode_value(self, measurement: Any) -> bytes:
        """Pack a domain measurement into the fixed-size slot value."""

    @abstractmethod
    def decode_value(self, value: bytes) -> Any:
        """Inverse of :meth:`encode_value`."""

    def _check_value_fits(self, value: bytes) -> bytes:
        limit = self.store.config.value_bytes
        if len(value) > limit:
            raise ValueError(
                f"{self.name} value of {len(value)} bytes exceeds the "
                f"deployment's {limit}-byte slots"
            )
        return value

    def report(self, key: Key, measurement: Any) -> TelemetryRecord:
        """Encode and push one measurement into the store."""
        value = self._check_value_fits(self.encode_value(measurement))
        self.store.put(key, value)
        self.reports += 1
        return TelemetryRecord(key=key, value=value, backend=self.name)

    def query(self, key: Key) -> Optional[Any]:
        """Query and decode; ``None`` on an empty return."""
        result: QueryResult = self.store.get(key)
        if not result.answered:
            return None
        return self.decode_value(result.value)
