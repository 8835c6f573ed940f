"""Time-series half of ``repro.obs``: periodic registry scrapes into rings.

The registry (:mod:`repro.obs.metrics`) answers "what happened so far";
the quantities the paper reasons about -- loss, overwrite pressure, query
success -- only make sense *over time and load*.  This module adds the
temporal axis:

- :class:`Series` -- one metric's history in a fixed-capacity ring buffer
  of ``(tick, value)`` points, with windowed delta/rate queries (counter
  resets clamp to zero, mirroring Prometheus ``rate`` semantics) and
  windowed quantiles for histogram series;
- :class:`MetricsScraper` -- snapshots a :class:`~repro.obs.MetricsRegistry`
  on demand or every ``interval`` logical ticks (frame counts, report
  counts -- any monotone driver), appending one point per live series and
  optionally persisting each scrape as a JSON line for cross-run trend
  diffing (:func:`load_jsonl` / :func:`trend_diff`);
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
    the cumulative ``(bucket_counts, sum)`` pair so windowed quantiles can
    subtract any two points.  Appending beyond ``capacity`` evicts the
    oldest point (the ring the issue of unbounded run lengths demands).
    """

    __slots__ = ("name", "labels", "kind", "bounds", "_ticks", "_values")

    def __init__(
        self,
        name: str,
        labels: Labels,
        kind: str,
        capacity: int,
        bounds: Tuple[float, ...] = (),
    ) -> None:
        if capacity < 2:
            raise ValueError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.bounds = bounds
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

    def _window(self, window: Optional[int]) -> Tuple[list, list]:
        """The trailing ``window`` points (all points when None)."""
        ticks, values = list(self._ticks), list(self._values)
        if window is not None and window > 0:
            ticks, values = ticks[-window:], values[-window:]
        return ticks, values

    def delta(self, window: Optional[int] = None) -> float:
        """Newest minus oldest value inside the trailing window.

        Counter series clamp negative deltas to 0.0 -- a decrease can only
        mean the underlying registry was reset mid-run, and a reset must
        not surface as negative traffic (Prometheus ``rate`` semantics,
        which :meth:`MetricsRegistry.snapshot`'s diff mirrors).
        """
        ticks, values = self._window(window)
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

    def rate(self, window: Optional[int] = None) -> float:
        """Windowed delta divided by the tick span (0.0 on empty spans)."""
        ticks, _values = self._window(window)
        if len(ticks) < 2:
            return 0.0
        span = ticks[-1] - ticks[0]
        return self.delta(window) / span if span else 0.0

    def quantile(self, q: float, window: Optional[int] = None) -> float:
        """Approximate windowed quantile for a histogram series.

        Subtracts the oldest from the newest cumulative bucket counts in
        the window and walks the bucket bounds, exactly like
        :meth:`~repro.obs.metrics.Histogram.quantile` does for all-time
        data.  Returns 0.0 for empty windows; raises for non-histograms.
        """
        if self.kind != "histogram":
            raise ValueError(f"quantile needs a histogram series, not {self.kind}")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        _ticks, values = self._window(window)
        if len(values) < 2:
            return 0.0
        first_counts, _first_sum = values[0]
        last_counts, _last_sum = values[-1]
        counts = [max(0, b - a) for a, b in zip(first_counts, last_counts)]
        total = sum(counts)
        if not total:
            return 0.0
        rank = q * total
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            if running >= rank and count:
                return bound
        return self.bounds[-1] if self.bounds else 0.0


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
        can be trend-diffed offline (:func:`load_jsonl`, :func:`trend_diff`).

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
            if kind == "histogram":
                counts, total, bounds = value
                if series is None:
                    series = Series(
                        name, labels, kind, self.capacity, bounds=bounds
                    )
                    self._series[(name, labels)] = series
                series.append(tick, (counts, total))
            else:
                if series is None:
                    series = Series(name, labels, kind, self.capacity)
                    self._series[(name, labels)] = series
                series.append(tick, value)
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

    def delta(self, name: str) -> float:
        """Delta of the unlabelled series (0.0 when the series is unknown)."""
        series = self.series(name)
        return series.delta() if series is not None else 0.0

    def rate(self, name: str) -> float:
        """Per-tick rate of the unlabelled series (0.0 when unknown)."""
        series = self.series(name)
        return series.rate() if series is not None else 0.0

    def total_delta(self, name: str) -> float:
        """Delta of the family-wide total (counter resets clamp)."""
        points = self.total_series(name)
        if len(points) < 2:
            return 0.0
        return max(0.0, points[-1][1] - points[0][1])

    def quantile(self, name: str, q: float) -> float:
        """Quantile of the unlabelled histogram series (0.0 when unknown)."""
        series = self.series(name)
        return series.quantile(q) if series is not None else 0.0


def load_jsonl(path) -> List[dict]:
    """Parse a scraper's JSON-lines persistence file back into scrape rows.

    Each row is ``{"tick": int, "samples": [{name, labels, kind, ...}]}``
    in scrape order -- the shape :func:`trend_diff` consumes.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _final_totals(
    rows: List[dict], group_label: Optional[str] = None
) -> Dict[str, float]:
    """Family-wide totals (counters/gauges summed over labels) of a run's
    last scrape; histograms contribute their observation counts.

    With ``group_label`` (e.g. ``"node"``) totals are kept separate per
    label value, keyed Prometheus-style: ``name{node="collector-0"}``;
    samples missing the label fall under ``name`` unchanged.
    """
    if not rows:
        return {}
    totals: Dict[str, float] = {}
    for sample in rows[-1]["samples"]:
        value = sample["count"] if sample["kind"] == "histogram" else sample["value"]
        key = sample["name"]
        if group_label is not None:
            group = sample.get("labels", {}).get(group_label)
            if group is not None:
                key = f'{key}{{{group_label}="{group}"}}'
        totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def trend_diff(
    run_a: List[dict],
    run_b: List[dict],
    group_label: Optional[str] = None,
) -> Dict[str, dict]:
    """Compare the final totals of two persisted runs, name by name.

    Returns ``{name: {"a": ..., "b": ..., "delta": b - a}}`` for every
    metric family either run recorded -- the cross-run regression view
    (did loss go up between yesterday's run and today's?).  Families
    absent from one run read as 0.0 there.

    ``group_label="node"`` splits every family per fleet node (keys like
    ``nic_frames_received{node="collector-1"}``), so a regression on one
    collector isn't averaged away by its healthy peers.
    """
    totals_a = _final_totals(run_a, group_label)
    totals_b = _final_totals(run_b, group_label)
    out: Dict[str, dict] = {}
    for name in sorted(set(totals_a) | set(totals_b)):
        a = totals_a.get(name, 0.0)
        b = totals_b.get(name, 0.0)
        out[name] = {"a": a, "b": b, "delta": b - a}
    return out
