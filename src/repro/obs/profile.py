"""Stage profiling: wall-clock timing of the datapath's hot stages.

The tracer (:mod:`repro.obs.tracing`) answers "which stages did this
report cross" on a logical clock; this module answers "how long does each
stage take" on the wall clock.  A :class:`StageProfiler` owns no clock:
it is a *sink* of the registry's stage timers
(:meth:`~repro.obs.metrics.MetricsRegistry.stage`), the same clock pairs
that feed the ``stage_seconds`` histograms.  Attach one with
``registry.attach_profiler(profiler)`` -- before or after the pipeline
is built -- and every timed stage (fabric delivery, NIC ingest, store
puts, client queries, ...) lands in:

- per-stage aggregates (count / total / min / max seconds) for the
  ``repro obs profile`` table;
- a bounded ring of raw timed events exportable as Chrome ``trace_event``
  JSON (:meth:`StageProfiler.to_chrome_trace`), loadable directly in
  ``chrome://tracing`` or Perfetto for flame-style inspection of a run.

The export uses "X" (complete) events with microsecond timestamps
relative to the profiler's construction, one ``tid`` per stage name so
concurrent stages stack into separate tracks.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Deque, Dict, List


class StageStats:
    """Aggregate timing for one stage name."""

    __slots__ = ("stage", "count", "total", "min", "max")

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def __repr__(self) -> str:
        return (
            f"StageStats({self.stage}: count={self.count}, "
            f"total={self.total:.6f}s)"
        )

    def add(self, seconds: float) -> None:
        """Fold one observation into the aggregate."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Mean seconds per call (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly flattening of the aggregate."""
        return {
            "stage": self.stage,
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
        }


class StageProfiler:
    """Records wall-clock stage timings and exports Chrome traces.

    Parameters
    ----------
    max_events:
        Ring capacity for raw events (oldest dropped beyond it); the
        aggregates keep counting regardless, so the stats table stays
        exact even when the event ring wraps.
    """

    def __init__(self, max_events: int = 65536) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        #: Raw events: (stage, start_seconds, duration_seconds), ring-bounded.
        self._events: Deque[tuple] = deque(maxlen=max_events)
        self._dropped_events = 0
        self._stats: Dict[str, StageStats] = {}
        self._epoch = perf_counter()

    def __repr__(self) -> str:
        return (
            f"StageProfiler(stages={len(self._stats)}, "
            f"events={len(self._events)}, dropped={self._dropped_events})"
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, stage: str, started: float, ended: float) -> None:
        """Record one timed stage from its ``perf_counter`` begin/end pair.

        What an attached :class:`~repro.obs.metrics.StageTimer` calls
        from ``stop`` -- no context manager allocation on the datapath.
        """
        seconds = ended - started
        if seconds < 0.0:
            seconds = 0.0
        stats = self._stats.get(stage)
        if stats is None:
            stats = StageStats(stage)
            self._stats[stage] = stats
        stats.add(seconds)
        if len(self._events) == self.max_events:
            self._dropped_events += 1  # the append below evicts the oldest
        self._events.append((stage, started - self._epoch, seconds))

    @contextmanager
    def stage(self, name: str):
        """Context manager convenience for cold paths and tests."""
        started = perf_counter()
        try:
            yield
        finally:
            self.record(name, started, perf_counter())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> List[StageStats]:
        """Per-stage aggregates, heaviest total time first."""
        return sorted(
            self._stats.values(), key=lambda s: s.total, reverse=True
        )

    def events(self) -> List[tuple]:
        """The retained raw events as ``(stage, start_s, duration_s)``."""
        return list(self._events)

    @property
    def dropped_events(self) -> int:
        """Events evicted from the ring (aggregates still counted them)."""
        return self._dropped_events

    def render(self) -> str:
        """The ``repro obs profile`` table: one line per stage."""
        lines = [
            "== stage profile (wall-clock) ==",
            f"{'stage':<24} {'calls':>8} {'total_ms':>10} "
            f"{'mean_us':>10} {'min_us':>10} {'max_us':>10}",
        ]
        for stats in self.stats():
            lines.append(
                f"{stats.stage:<24} {stats.count:>8} "
                f"{stats.total * 1e3:>10.3f} {stats.mean * 1e6:>10.2f} "
                f"{(stats.min if stats.count else 0.0) * 1e6:>10.2f} "
                f"{stats.max * 1e6:>10.2f}"
            )
        if self._dropped_events:
            lines.append(
                f"(event ring wrapped: {self._dropped_events} oldest events "
                f"dropped from the Chrome trace; aggregates above are exact)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The retained events as a Chrome ``trace_event`` JSON object.

        Emits the JSON-object format (``{"traceEvents": [...]}``) with one
        complete ("X") event per timed stage, microsecond timestamps
        relative to profiler construction, and one ``tid`` per stage name
        (plus thread-name metadata events) so ``chrome://tracing`` and
        Perfetto lay each stage out on its own track.
        """
        tids: Dict[str, int] = {}
        events: List[dict] = []
        for stage, start, duration in self._events:
            tid = tids.get(stage)
            if tid is None:
                tid = len(tids) + 1
                tids[stage] = tid
            events.append(
                {
                    "name": stage,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                }
            )
        metadata: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "repro-pipeline"},
            }
        ]
        for stage, tid in sorted(tids.items(), key=lambda item: item[1]):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": stage},
                }
            )
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> dict:
        """Write :meth:`to_chrome_trace` to ``path``; returns the object."""
        trace = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        return trace
