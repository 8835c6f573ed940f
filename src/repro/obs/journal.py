"""Flight-recorder event journal: the control plane's black box.

Metrics answer "how much"; when a failover or a rollback needs a
postmortem, operators need "what happened, in what order".  This module
is the bounded flight recorder the control and observability planes write
typed events into:

- :class:`JournalEvent` -- one logically-timestamped event: a monotonic
  sequence number, the journal's logical tick at record time, a ``kind``
  from a small vocabulary (``failover``, ``epoch_bump``, ``plan_apply``,
  ``plan_rollback``, ``probe_failure``, ``member_failed``, ``slo_alert``,
  ``ring_overwrite``, ...), a human message, an optional trace id
  correlating the event with :mod:`repro.obs.tracing`, and string attrs;
- :class:`EventJournal` -- a fixed-capacity ring of events (oldest
  overwritten, overwrites counted), advanced by the same logical clocks
  that drive :class:`~repro.obs.timeseries.MetricsScraper`, with cursor
  reads (:meth:`EventJournal.events_since`) so followers -- the
  :class:`~repro.obs.selftel.SelfTelemetryExporter` exporting events as
  DTA Append records, the postmortem bundler -- consume incrementally;
- fixed-width wire encoding (:func:`encode_event` / :func:`decode_event`)
  so a journal event fits one Append ring record and survives the
  switch→fabric→NIC datapath byte-exactly.

Journalling is opt-in, like tracing: the process default is
:data:`NULL_JOURNAL` (no-op), installed/replaced via
:func:`repro.obs.set_journal`, so control-plane call sites pay one no-op
method call when the recorder is off.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The event kinds the control plane records today.  ``record`` accepts
#: any string -- this is documentation-by-vocabulary, not an enum, so new
#: layers can journal without touching this module.
KNOWN_KINDS: Tuple[str, ...] = (
    "probe_failure",
    "member_failed",
    "failover",
    "plan_apply",
    "plan_rollback",
    "epoch_bump",
    "drain",
    "rejoin",
    "slo_alert",
    "ring_overwrite",
    "bundle",
)

#: Wire header for one encoded event: big-endian (seq, tick).
_HEADER = struct.Struct(">QQ")


@dataclass(frozen=True)
class JournalEvent:
    """One flight-recorder entry.

    ``seq`` is the journal-wide monotonic sequence number (never reused,
    so cursors survive ring overwrites); ``tick`` is the journal's logical
    clock at record time -- the same packet/report clock the scraper and
    SLO engine run on, which is what lets a postmortem line up "alert
    fired at tick 7000" with "plan applied at tick 6980".
    """

    seq: int
    tick: int
    kind: str
    message: str = ""
    trace_id: Optional[int] = None
    attrs: Tuple[Tuple[str, str], ...] = ()

    def attr(self, key: str) -> Optional[str]:
        """One attr value by key (None when absent)."""
        for k, v in self.attrs:
            if k == key:
                return v
        return None

    def to_row(self) -> Dict[str, object]:
        """JSON-friendly dict (bundle and CLI output)."""
        row: Dict[str, object] = {
            "seq": self.seq,
            "tick": self.tick,
            "kind": self.kind,
            "message": self.message,
        }
        if self.trace_id is not None:
            row["trace_id"] = self.trace_id
        if self.attrs:
            row["attrs"] = dict(self.attrs)
        return row

    def render(self) -> str:
        """One-line human rendering: ``#seq @tick kind message {attrs}``."""
        line = f"#{self.seq:06d} @{self.tick:<8d} {self.kind:<14} {self.message}"
        if self.trace_id is not None:
            line += f" trace={self.trace_id}"
        if self.attrs:
            line += " " + " ".join(f"{k}={v}" for k, v in self.attrs)
        return line


class EventJournal:
    """Bounded ring of :class:`JournalEvent`, overwrite-oldest.

    Parameters
    ----------
    capacity:
        Events retained; recording past it evicts the oldest (counted in
        :attr:`overwritten`).  Mirrors the paper's Append ring semantics
        on purpose -- the journal *is* exported through an Append ring by
        the self-telemetry exporter.
    """

    enabled = True

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._next_seq = 0
        self.tick = 0
        #: Events evicted by the ring (total recorded = next_seq).
        self.overwritten = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.events())

    def __repr__(self) -> str:
        return (
            f"EventJournal(events={len(self)}/{self.capacity}, "
            f"recorded={self._next_seq}, tick={self.tick})"
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def advance(self, tick: int) -> None:
        """Move the logical clock forward (monotone; regressions ignored).

        The packet/report drivers call this alongside
        :meth:`MetricsScraper.maybe_scrape`, so events recorded between
        scrapes still carry a meaningful tick.
        """
        if tick > self.tick:
            self.tick = tick

    def record(
        self,
        kind: str,
        message: str = "",
        trace_id: Optional[int] = None,
        tick: Optional[int] = None,
        **attrs: object,
    ) -> JournalEvent:
        """Append one event; returns it (with its assigned ``seq``).

        ``tick`` defaults to the journal's current logical clock; attrs
        are stringified (sorted by key) so events stay hashable and
        wire-encodable.  ``kind`` must be one of :data:`KNOWN_KINDS` --
        a typo here would silently split an event stream in two.

        ``trace_id`` defaults to the process tracer's *active* trace
        (see :meth:`repro.obs.tracing.Tracer.activate`), so any event a
        traced operation journals -- a ring overwrite during its Append,
        an SLO alert it tripped -- is automatically correlated with its
        span tree.
        """
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown journal event kind {kind!r}; add it to "
                f"KNOWN_KINDS if it is a new control-plane event"
            )
        if trace_id is None:
            # Looked up at record time, like the journal itself (events
            # are control-plane rate, not datapath rate).
            from repro import obs

            trace_id = obs.get_tracer().active_trace_id
        event = JournalEvent(
            seq=self._next_seq,
            tick=self.tick if tick is None else tick,
            kind=kind,
            message=message,
            trace_id=trace_id,
            attrs=tuple(sorted((str(k), str(v)) for k, v in attrs.items())),
        )
        self._next_seq += 1
        if len(self._events) == self.capacity:
            self.overwritten += 1
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The seq the next recorded event will get (cursor high-water)."""
        return self._next_seq

    def events(self) -> List[JournalEvent]:
        """Retained events oldest-first."""
        return list(self._events)

    def events_since(self, seq: int) -> List[JournalEvent]:
        """Retained events with ``event.seq >= seq``, oldest first.

        The incremental-follower read: keep a cursor, pass it here, bump
        it to ``journal.next_seq``.  Events overwritten before the cursor
        caught up are simply gone -- exactly the Append ring's loss model.
        """
        return [event for event in self._events if event.seq >= seq]

    def tail(self, count: int) -> List[JournalEvent]:
        """The newest ``count`` events, oldest-first."""
        if count <= 0:
            return []
        return list(self._events)[-count:]

    def render(self) -> str:
        """Multi-line human rendering of every retained event."""
        head = (
            f"== journal ({len(self)} retained, {self._next_seq} recorded, "
            f"{self.overwritten} overwritten) =="
        )
        return "\n".join([head] + [event.render() for event in self._events])


class NullJournal:
    """No-op journal: the process default when flight recording is off."""

    enabled = False
    capacity = 0
    tick = 0
    overwritten = 0
    next_seq = 0

    def __len__(self) -> int:
        return 0

    def advance(self, tick: int) -> None:
        """No-op."""

    def record(self, kind, message="", trace_id=None, tick=None, **attrs):
        """No-op; returns None (callers must not rely on the event)."""
        return None

    def events(self) -> List[JournalEvent]:
        """Always empty."""
        return []

    def events_since(self, seq: int) -> List[JournalEvent]:
        """Always empty."""
        return []

    def tail(self, count: int) -> List[JournalEvent]:
        """Always empty."""
        return []

    def render(self) -> str:
        """Fixed marker."""
        return "== journal (disabled) =="


#: Shared no-op singleton; see :func:`repro.obs.set_journal`.
NULL_JOURNAL = NullJournal()


# ----------------------------------------------------------------------
# Wire encoding: one event <-> one fixed-width Append ring record
# ----------------------------------------------------------------------


def encode_event(event: JournalEvent, record_bytes: int) -> bytes:
    """Pack ``event`` into exactly ``record_bytes`` bytes.

    Layout: 8-byte big-endian seq, 8-byte big-endian tick, then the
    UTF-8 payload ``kind|trace_id|message`` truncated to fit and
    zero-padded.  Attrs are appended to the message as ``k=v`` words --
    lossy past the record width, which is the flight-recorder trade: a
    fixed record size is what lets the Append translator reserve ring
    slots with a single FETCH_ADD.
    """
    if record_bytes <= _HEADER.size:
        raise ValueError(
            f"record_bytes must exceed the {_HEADER.size}-byte header, "
            f"got {record_bytes}"
        )
    message = event.message
    if event.attrs:
        words = " ".join(f"{k}={v}" for k, v in event.attrs)
        message = f"{message} {words}" if message else words
    trace = "" if event.trace_id is None else str(event.trace_id)
    payload = f"{event.kind}|{trace}|{message}".encode("utf-8")
    payload = payload[: record_bytes - _HEADER.size]
    return (
        _HEADER.pack(event.seq, event.tick)
        + payload
        + b"\x00" * (record_bytes - _HEADER.size - len(payload))
    )


def decode_event(record: bytes) -> Optional[JournalEvent]:
    """Unpack one ring record back into a :class:`JournalEvent`.

    Returns None for records that cannot be a journal event (too short,
    no ``kind|trace|message`` payload shape) -- under impairment a ring
    slot can hold a stale or zero record, and the postmortem reader must
    skip those rather than crash.  Truncated UTF-8 at the record boundary
    decodes with replacement, keeping the rest of the line readable.
    """
    if len(record) <= _HEADER.size:
        return None
    seq, tick = _HEADER.unpack_from(record)
    payload = record[_HEADER.size:].rstrip(b"\x00")
    if not payload:
        return None
    text = payload.decode("utf-8", errors="replace")
    parts = text.split("|", 2)
    if len(parts) != 3 or not parts[0]:
        return None
    kind, trace, message = parts
    trace_id: Optional[int] = None
    if trace:
        try:
            trace_id = int(trace)
        except ValueError:
            return None
    return JournalEvent(
        seq=seq, tick=tick, kind=kind, message=message, trace_id=trace_id
    )
