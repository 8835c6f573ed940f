"""Time-series half of ``repro.obs``: periodic registry scrapes into rings.

The registry (:mod:`repro.obs.metrics`) answers "what happened so far";
the quantities the paper reasons about -- loss, overwrite pressure, query
success -- only make sense *over time and load*.  This module adds the
temporal axis:

- :class:`Series` -- one metric's history in a fixed-capacity ring buffer
  of ``(tick, value)`` points, with the delta across them (counter
  resets clamp to zero, mirroring Prometheus ``rate`` semantics);
- :class:`MetricsScraper` -- snapshots a :class:`~repro.obs.MetricsRegistry`
  on demand or every ``interval`` logical ticks (frame counts, report
  counts -- any monotone driver), appending one point per live series and
  optionally persisting each scrape as a JSON line (read back with
  :func:`load_jsonl`);
- :func:`sparkline` -- the tiny unicode rendering the ``repro obs watch``
  dashboard uses for per-window deltas.

Ticks are logical, not wall-clock, so scraped series are deterministic
under seeded runs -- the property the SLO conformance tests rely on.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import (
    Labels,
    MetricsRegistry,
    MetricsSnapshot,
    _normalise_labels,
)

#: Unicode blocks for :func:`sparkline`, shallowest to tallest.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Iterable[float], width: int = 32) -> str:
    """Render ``values`` as a unicode sparkline (last ``width`` points).

    A flat series renders as all-low blocks; an empty one as "".
    """
    points = [float(v) for v in values][-width:]
    if not points:
        return ""
    low, high = min(points), max(points)
    span = high - low
    if span <= 0:
        return SPARK_BLOCKS[0] * len(points)
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[int(round((v - low) / span * top))] for v in points
    )


class Series:
    """One metric's scraped history in a fixed-capacity ring buffer.

    Counter/gauge points store the sampled value; histogram points store
    the cumulative ``(bucket_counts, sum)`` pair, so a delta counts the
    observations between two points.  Appending beyond ``capacity`` evicts
    the oldest point, so unbounded runs hold bounded memory.
    """

    __slots__ = ("name", "labels", "kind", "_ticks", "_values")

    def __init__(self, name: str, labels: Labels, kind: str, capacity: int) -> None:
        if capacity < 2:
            raise ValueError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self._ticks: deque = deque(maxlen=capacity)
        self._values: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ticks)

    def __repr__(self) -> str:
        return (
            f"Series({self.name}{dict(self.labels)} kind={self.kind}, "
            f"points={len(self)})"
        )

    def append(self, tick: int, value) -> None:
        """Record one scraped point (evicting the oldest at capacity)."""
        self._ticks.append(tick)
        self._values.append(value)

    def points(self) -> List[Tuple[int, object]]:
        """All retained ``(tick, value)`` points, oldest first."""
        return list(zip(self._ticks, self._values))

    def ticks(self) -> List[int]:
        """The retained ticks, oldest first."""
        return list(self._ticks)

    def values(self) -> List[object]:
        """The retained values, oldest first."""
        return list(self._values)

    def latest(self):
        """The newest value (None when empty)."""
        return self._values[-1] if self._values else None

    def delta(self) -> float:
        """Newest minus oldest retained value.

        Counter series clamp negative deltas to 0.0 -- a decrease can only
        mean the underlying registry was reset mid-run, and a reset must
        not surface as negative traffic (Prometheus ``rate`` semantics,
        which :meth:`MetricsRegistry.snapshot`'s diff mirrors).
        """
        values = self._values
        if len(values) < 2:
            return 0.0
        if self.kind == "histogram":
            first_counts, first_sum = values[0]
            last_counts, last_sum = values[-1]
            return max(0.0, float(sum(last_counts) - sum(first_counts)))
        out = float(values[-1]) - float(values[0])
        if self.kind == "counter" and out < 0.0:
            return 0.0
        return out


class MetricsScraper:
    """Periodically snapshots a registry into ring-buffer time series.

    Parameters
    ----------
    registry:
        The registry to scrape; defaults to the process registry.
    capacity:
        Ring capacity per series (points retained).
    interval:
        Logical-tick cadence for :meth:`maybe_scrape` -- e.g. "every 256
        reports".  :meth:`scrape` ignores it (explicit scrapes always run).
    persist_path:
        When set, every scrape appends one JSON line to this file so runs
        can be read back offline (:func:`load_jsonl`).

    The drivers (:class:`~repro.network.simulation.IntSimulation`,
    :class:`~repro.network.packet_sim.PacketLevelIntNetwork`, the ``repro
    obs`` CLI) call :meth:`maybe_scrape` with their own monotone tick --
    reports sent, packets sent -- so experiments get trend data for free.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        capacity: int = 512,
        interval: int = 1,
        persist_path=None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"scrape interval must be >= 1, got {interval}")
        if registry is None:
            # Imported lazily: repro.obs re-exports this module at package
            # import time, so the default can't be resolved at module level.
            from repro import obs

            registry = obs.get_registry()
        self.registry = registry
        self.capacity = capacity
        self.interval = interval
        self.persist_path = persist_path
        self.scrapes = 0
        self.last_tick: Optional[int] = None
        self._series: Dict[Tuple[str, Labels], Series] = {}
        self._observers: List[Callable[[int, MetricsSnapshot], None]] = []

    def __repr__(self) -> str:
        return (
            f"MetricsScraper(scrapes={self.scrapes}, "
            f"series={len(self._series)}, interval={self.interval})"
        )

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------

    def maybe_scrape(self, tick: int) -> Optional[MetricsSnapshot]:
        """Scrape iff ``tick`` advanced >= ``interval`` since the last scrape.

        The cheap per-event call drivers embed in their hot loops; returns
        the snapshot when a scrape ran, None otherwise.
        """
        if self.last_tick is not None and tick - self.last_tick < self.interval:
            return None
        return self.scrape(tick)

    def scrape(self, tick: Optional[int] = None) -> MetricsSnapshot:
        """Snapshot the registry now and append one point per live series.

        ``tick`` defaults to a self-advancing logical clock (last tick + 1)
        so explicit scrapes need no driver.  Returns the snapshot.
        """
        if tick is None:
            tick = 0 if self.last_tick is None else self.last_tick + 1
        snapshot = self.registry.snapshot()
        for (name, labels), (kind, value) in snapshot.samples.items():
            series = self._series.get((name, labels))
            if series is None:
                series = Series(name, labels, kind, self.capacity)
                self._series[(name, labels)] = series
            series.append(tick, value[:2] if kind == "histogram" else value)
        self.scrapes += 1
        self.last_tick = tick
        if self.persist_path is not None:
            self._persist(tick, snapshot)
        for observer in self._observers:
            observer(tick, snapshot)
        return snapshot

    def add_observer(
        self, observer: Callable[[int, MetricsSnapshot], None]
    ) -> None:
        """Call ``observer(tick, snapshot)`` after every scrape.

        The hook the :class:`~repro.obs.selftel.SelfTelemetryExporter`
        rides: exports happen exactly at scrape cadence, on the driver's
        logical clock, with the same snapshot the series rings received.
        """
        self._observers.append(observer)

    def _persist(self, tick: int, snapshot: MetricsSnapshot) -> None:
        """Append one JSON line for this scrape (histograms flattened)."""
        samples = []
        for (name, labels), (kind, value) in sorted(snapshot.samples.items()):
            row = {"name": name, "labels": dict(labels), "kind": kind}
            if kind == "histogram":
                counts, total, _bounds = value
                row["count"] = sum(counts)
                row["sum"] = total
            else:
                row["value"] = value
            samples.append(row)
        line = json.dumps({"tick": tick, "samples": samples})
        with open(self.persist_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    # ------------------------------------------------------------------
    # Series queries
    # ------------------------------------------------------------------

    def series(self, name: str, labels=None) -> Optional[Series]:
        """The ring series for one exact ``(name, labels)`` pair."""
        return self._series.get((name, _normalise_labels(labels)))

    def family(self, name: str) -> List[Series]:
        """Every labelled series scraped under ``name``."""
        return [s for (n, _labels), s in self._series.items() if n == name]

    def names(self) -> List[str]:
        """All scraped series names, sorted and de-duplicated."""
        return sorted({name for name, _labels in self._series})

    def total_series(self, name: str) -> List[Tuple[int, float]]:
        """Family-wide ``(tick, summed value)`` points for counters/gauges.

        Sums across label sets at each tick every member series reported,
        so per-instance series (one per fabric, one per NIC) roll up the
        same way :meth:`MetricsRegistry.total` does for live values.
        """
        by_tick: Dict[int, float] = {}
        for series in self.family(name):
            if series.kind == "histogram":
                continue
            for tick, value in series.points():
                by_tick[tick] = by_tick.get(tick, 0.0) + float(value)
        return sorted(by_tick.items())


def load_jsonl(path) -> List[dict]:
    """Parse a scraper's JSON-lines persistence file back into scrape rows.

    Each row is ``{"tick": int, "samples": [{name, labels, kind, ...}]}``
    in scrape order.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
