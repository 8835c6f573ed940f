"""The metrics registry: named counters, gauges and fixed-bucket histograms.

DART's collection plane is zero-CPU by design, so the only way to know the
pipeline is healthy is instrumentation at the switch, fabric, NIC and store
layers -- the quantities the paper reasons about (loss, redundancy ``N``,
query success probability) are all observable here.  This module provides
the process-wide substrate those layers share:

- :class:`Counter` / :class:`Gauge` / :class:`Histogram` -- allocation-free
  on the hot path (plain attribute updates, preallocated bucket arrays);
- :class:`MetricsRegistry` -- creates and owns metrics keyed by
  ``(name, labels)``, aggregates totals across label sets, and exposes
  snapshot/reset/diff plus Prometheus-text and JSON exposition;
- null variants (:data:`NULL_COUNTER`, ...) handed out by a *disabled*
  registry, so instrumented components pay only a no-op method call when
  observability is off (the ``bench-obs`` benchmark enforces this).

Identity semantics: requesting the same ``(name, labels)`` twice returns
the same metric object, so independent components can share a series (e.g.
the per-stage latency histograms) while per-instance series use
:meth:`MetricsRegistry.instance_labels`.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: A label set: sorted tuple of (key, value) pairs.  Hashable, so it can
#: key the registry's series maps.
Labels = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): 1us .. 1s, roughly log-spaced.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0,
)

#: Default size buckets (bytes): frame/payload size distributions.
SIZE_BUCKETS: Tuple[float, ...] = (
    16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 9216,
)

#: Default queue-depth / batch-size buckets (frames).
DEPTH_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)


def bucket_of_quantile(counts: Sequence[int], q: float) -> Optional[int]:
    """Index of the bucket holding the ``q``-th of ``counts``' observations
    (None when there are none): the one rank walk every quantile reads."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    rank, running = q * sum(counts), 0
    for index, count in enumerate(counts):
        running += count
        if running >= rank and count:
            return index
    return None


def _normalise_labels(labels) -> Labels:
    """Canonicalise a labels mapping/iterable into a sorted tuple of pairs."""
    if not labels:
        return ()
    if isinstance(labels, dict):
        items = labels.items()
    else:
        items = labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


class Counter:
    """A monotonically increasing count.

    The hot path is :meth:`inc`: one attribute add, no allocation.  Reads
    go through :attr:`value` so thin-view wrappers (``FabricCounters`` and
    friends) can expose live integers.
    """

    __slots__ = ("name", "labels", "help", "_value")

    #: Real metrics are enabled; the null variants override this so hot
    #: paths can gate optional work (timing, overwrite detection) cheaply.
    enabled = True

    kind = "counter"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels)}={self._value})"

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value


class Gauge:
    """A point-in-time value (queue depth, high-water mark, rate)."""

    __slots__ = ("name", "labels", "help", "_value")

    enabled = True
    kind = "gauge"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}{dict(self.labels)}={self._value})"

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self._value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it exceeds the current reading.

        The high-water-mark primitive: ``BufferedFabric`` calls this per
        enqueue so the deepest queue ever seen survives the flush.
        """
        if value > self._value:
            self._value = value

    @property
    def value(self) -> float:
        """Current reading."""
        return self._value


class Histogram:
    """A fixed-bucket histogram with Prometheus ``le`` bucket semantics.

    ``buckets`` are strictly increasing upper bounds; an observation ``v``
    lands in the first bucket whose bound satisfies ``v <= bound``, and
    values above the last bound land in the implicit ``+Inf`` overflow
    bucket.  Buckets are preallocated, so :meth:`observe` is a bisect plus
    two attribute adds -- no allocation on the hot path.
    """

    __slots__ = (
        "name",
        "labels",
        "help",
        "bounds",
        "_counts",
        "_sum",
        "_count",
        "_exemplars",
    )

    enabled = True
    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float],
        labels: Labels = (),
        help: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._exemplars: Optional[list] = None  # lazy: most histograms have none

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{dict(self.labels)} "
            f"count={self._count}, sum={self._sum:g})"
        )

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in O(1).

        The columnar batch path offers thousands of equally sized frames
        per call; one bisect covers them all.
        """
        if count <= 0:
            return
        self._counts[bisect_left(self.bounds, value)] += count
        self._sum += value * count
        self._count += count

    def observe_exemplar(self, value: float, exemplar: object) -> None:
        """Record one observation and stamp ``exemplar`` on its bucket.

        Exemplars link aggregate latency back to individual causes --
        the tracer passes a trace id, so ``exemplar(0.99)`` answers
        "show me a trace for a p99 outlier".  Each bucket keeps its most
        recent exemplar; exemplars live only on this live histogram and
        never enter snapshots (snapshot tuples stay ``(counts, sum,
        bounds)``).
        """
        index = bisect_left(self.bounds, value)
        self._counts[index] += 1
        self._sum += value
        self._count += 1
        if self._exemplars is None:
            self._exemplars = [None] * (len(self.bounds) + 1)
        self._exemplars[index] = exemplar

    def exemplar(self, q: float = 0.99) -> Optional[object]:
        """The exemplar stored on the bucket containing the ``q``-quantile.

        Uses the same rank walk as :meth:`quantile`, so the returned
        exemplar is an observation from the exact bucket that quantile
        reports.  None when empty or the bucket never saw an exemplar.
        """
        index = bucket_of_quantile(self._counts, q)
        if index is None or self._exemplars is None:
            return None
        return self._exemplars[index]

    @property
    def counts(self) -> Tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; the last entry is ``+Inf``."""
        return tuple(self._counts)

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket boundaries.

        Returns the upper bound of the bucket containing the ``q``-th
        observation (the last finite bound for the overflow bucket); 0.0
        when empty.  Good enough for dashboards -- exact quantiles would
        need per-observation storage.
        """
        index = bucket_of_quantile(self._counts, q)
        return 0.0 if index is None else self.bounds[min(index, len(self.bounds) - 1)]


class _NullMetric:
    """Base for the no-op variants a disabled registry hands out."""

    enabled = False
    name = "null"
    labels: Labels = ()
    help = ""

    @property
    def value(self) -> int:
        """Always 0."""
        return 0


class NullCounter(_NullMetric):
    """No-op counter: ``inc`` does nothing, ``value`` is always 0."""

    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        """No-op."""


class NullGauge(_NullMetric):
    """No-op gauge."""

    kind = "gauge"

    def set(self, value: float) -> None:
        """No-op."""

    def set_max(self, value: float) -> None:
        """No-op."""


class NullHistogram(_NullMetric):
    """No-op histogram: zero buckets, ``observe`` does nothing."""

    kind = "histogram"
    bounds: Tuple[float, ...] = ()

    def observe(self, value: float) -> None:
        """No-op."""

    def observe_many(self, value: float, count: int) -> None:
        """No-op."""

    def observe_exemplar(self, value: float, exemplar: object) -> None:
        """No-op."""

    def exemplar(self, q: float = 0.99) -> None:
        """Always None."""
        return None

    @property
    def counts(self) -> Tuple[int, ...]:
        """Always empty."""
        return ()

    @property
    def sum(self) -> float:
        """Always 0."""
        return 0.0

    @property
    def count(self) -> int:
        """Always 0."""
        return 0

    @property
    def mean(self) -> float:
        """Always 0."""
        return 0.0

    def quantile(self, q: float) -> float:
        """Always 0."""
        return 0.0


#: Shared no-op singletons; a disabled registry returns these for every
#: request, so instrumented hot paths cost one no-op method call.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()

#: Anything the registry can hand out.
Metric = Union[Counter, Gauge, Histogram, NullCounter, NullGauge, NullHistogram]


class StageTimer:
    """The one clock of a timed stage, from :meth:`MetricsRegistry.stage`.

    A site brackets its work with ``started = timer.start()`` and
    ``timer.stop(started)``: ``stop`` reads the clock once and hands the
    pair to every sink -- the ``stage_seconds{stage=...}`` histogram and,
    while one is attached to the registry, its stage profiler.  Per-frame
    sites bracket only while ``timer.profiler is not None``, so they read
    no clock unless someone is profiling.
    """

    __slots__ = ("stage", "histogram", "profiler")

    #: The stage clock (``perf_counter``).
    start = staticmethod(perf_counter)

    def __init__(self, stage: str, histogram, profiler) -> None:
        self.stage = stage
        self.histogram = histogram
        self.profiler = profiler

    def __repr__(self) -> str:
        return f"StageTimer({self.stage}, profiled={self.profiler is not None})"

    def stop(self, started: float, exemplar: object = None) -> None:
        """End the stage begun at ``started``; ``exemplar`` (a trace id)
        is stamped on the histogram bucket the duration lands in."""
        ended = perf_counter()
        if exemplar is None:
            self.histogram.observe(ended - started)
        else:
            self.histogram.observe_exemplar(ended - started, exemplar)
        if self.profiler is not None:
            self.profiler.record(self.stage, started, ended)


class MetricsSnapshot:
    """An immutable copy of a registry's series at one point in time.

    ``samples`` maps ``(name, labels)`` to ``(kind, value)`` where value is
    a number for counters/gauges and ``(bucket_counts, sum, bounds)`` for
    histograms.  ``help_texts`` maps metric names to their family help
    strings (first non-empty help wins), carried so the Prometheus
    exposition can emit ``# HELP`` once per family.  Snapshots support
    :meth:`diff` (this minus an earlier snapshot: counters and histograms
    subtract, gauges keep this snapshot's reading) and the same
    expositions as the live registry.
    """

    def __init__(
        self,
        samples: Dict[Tuple[str, Labels], tuple],
        help_texts: Optional[Dict[str, str]] = None,
    ) -> None:
        self.samples = samples
        self.help_texts = help_texts or {}

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return f"MetricsSnapshot(series={len(self.samples)})"

    def get(self, name: str, labels=None, default=0):
        """The sample value for one series (counters/gauges: a number)."""
        entry = self.samples.get((name, _normalise_labels(labels)))
        return default if entry is None else entry[1]

    def total(self, name: str, **label_filters: str) -> float:
        """Sum of a counter/gauge series across label sets, with filters."""
        out = 0.0
        for (series_name, labels), (kind, value) in self.samples.items():
            if series_name != name or kind == "histogram":
                continue
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in label_filters.items()):
                out += value
        return out

    def filter_labels(self, **label_filters: str) -> "MetricsSnapshot":
        """The sub-snapshot whose samples carry all the given label values.

        ``snapshot.filter_labels(node="collector-0")`` keeps exactly the
        series labelled with that node -- the per-node view the fleet
        dashboard and the ``repro obs --node`` filter render.  Help texts
        are carried through for the surviving families.
        """
        samples = {
            (name, labels): entry
            for (name, labels), entry in self.samples.items()
            if all(
                dict(labels).get(key) == value
                for key, value in label_filters.items()
            )
        }
        names = {name for name, _labels in samples}
        help_texts = {
            name: text
            for name, text in self.help_texts.items()
            if name in names
        }
        return MetricsSnapshot(samples, help_texts=help_texts)

    def label_values(self, label: str) -> List[str]:
        """Every distinct value of ``label`` across the samples, sorted."""
        return sorted(
            {
                value
                for (_name, labels) in self.samples
                for key, value in labels
                if key == label
            }
        )

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot minus ``earlier`` (a measurement window).

        Counters and histogram buckets subtract; gauges keep this
        snapshot's value (a gauge delta is rarely meaningful).  Series
        absent from ``earlier`` pass through unchanged.
        """
        out: Dict[Tuple[str, Labels], tuple] = {}
        for key, (kind, value) in self.samples.items():
            before = earlier.samples.get(key)
            if before is None or before[0] != kind or kind == "gauge":
                out[key] = (kind, value)
            elif kind == "histogram":
                counts, total, bounds = value
                counts0, total0, _bounds0 = before[1]
                out[key] = (
                    kind,
                    (
                        tuple(a - b for a, b in zip(counts, counts0)),
                        total - total0,
                        bounds,
                    ),
                )
            else:
                out[key] = (kind, value - before[1])
        return MetricsSnapshot(out, help_texts=dict(self.help_texts))

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON exposition: ``[{name, labels, kind, ...}, ...]``."""
        rows = []
        for (name, labels), (kind, value) in sorted(self.samples.items()):
            row = {"name": name, "labels": dict(labels), "kind": kind}
            if kind == "histogram":
                counts, total, bounds = value
                row["buckets"] = [
                    {"le": bound, "count": count}
                    for bound, count in zip(list(bounds) + ["+Inf"], counts)
                ]
                row["sum"] = total
                row["count"] = sum(counts)
            else:
                row["value"] = value
            rows.append(row)
        return json.dumps(rows, indent=indent)

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition.

        The ``# HELP`` / ``# TYPE`` comment pair is emitted exactly once
        per metric *family* (name), ahead of all of the family's samples
        -- per-sample repetition for labelled metrics is rejected by real
        Prometheus parsers, and the round-trip test enforces the family
        grouping mechanically.  ``# HELP`` is omitted for families with no
        help text (legal per the exposition format).
        """
        by_name: Dict[str, List[Tuple[Labels, tuple]]] = {}
        kinds: Dict[str, str] = {}
        for (name, labels), (kind, value) in sorted(self.samples.items()):
            by_name.setdefault(name, []).append((labels, (kind, value)))
            kinds[name] = kind
        lines: List[str] = []
        for name in sorted(by_name):
            kind = kinds[name]
            full = prefix + name
            help_text = self.help_texts.get(name, "")
            if help_text:
                lines.append(f"# HELP {full} {_escape_help(help_text)}")
            lines.append(f"# TYPE {full} {kind}")
            for labels, (_kind, value) in by_name[name]:
                if kind == "histogram":
                    counts, total, bounds = value
                    running = 0
                    for bound, count in zip(
                        [str(b) for b in bounds] + ["+Inf"], counts
                    ):
                        running += count
                        sample_labels = labels + (("le", bound),)
                        lines.append(
                            f"{full}_bucket{_render_labels(sample_labels)}"
                            f" {running}"
                        )
                    lines.append(f"{full}_sum{_render_labels(labels)} {total:g}")
                    lines.append(
                        f"{full}_count{_render_labels(labels)} {running}"
                    )
                else:
                    # Counters get the conventional _total suffix, but never
                    # doubled when the series name already carries it.
                    suffix = (
                        "_total"
                        if kind == "counter" and not name.endswith("_total")
                        else ""
                    )
                    lines.append(
                        f"{full}{suffix}{_render_labels(labels)} {value:g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` payload (backslash and newline, per the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Escape a label value (backslash, double-quote, newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Labels) -> str:
    """Prometheus label rendering: ``{k="v",...}`` or empty string.

    Label *values* are escaped per the exposition format; unescaped
    quotes/backslashes in values are another construct real parsers
    reject.
    """
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + body + "}"


class MetricsRegistry:
    """Creates, owns and exposes the process's metrics.

    Parameters
    ----------
    enabled:
        When False the registry records nothing: every request returns the
        shared no-op singletons, making instrumentation zero-cost (one
        no-op call) on hot paths.  Components capture their metrics at
        construction, so toggling affects components built afterwards.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: name -> {labels -> metric}
        self._series: Dict[str, Dict[Labels, Metric]] = {}
        self._stages: Dict[str, StageTimer] = {}
        #: The attached stage profiler (see :meth:`attach_profiler`).
        self.profiler = None
        self._instance_seq = 0
        #: Fleet node the registry currently attributes new instances to;
        #: see :meth:`node_scope`.
        self.node: Optional[str] = None

    def __repr__(self) -> str:
        series = sum(len(v) for v in self._series.values())
        return f"MetricsRegistry(enabled={self.enabled}, series={series})"

    # ------------------------------------------------------------------
    # Metric creation (idempotent per (name, labels))
    # ------------------------------------------------------------------

    def _get_or_create(self, name: str, labels, factory, kind: str):
        label_key = _normalise_labels(labels)
        family = self._series.setdefault(name, {})
        metric = family.get(label_key)
        if metric is None:
            metric = factory(label_key)
            family[label_key] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        return metric

    def counter(self, name: str, labels=None, help: str = "") -> Counter:
        """The counter for ``(name, labels)``, created on first request."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get_or_create(
            name, labels, lambda key: Counter(name, key, help), "counter"
        )

    def gauge(self, name: str, labels=None, help: str = "") -> Gauge:
        """The gauge for ``(name, labels)``, created on first request."""
        if not self.enabled:
            return NULL_GAUGE
        return self._get_or_create(
            name, labels, lambda key: Gauge(name, key, help), "gauge"
        )

    def histogram(
        self, name: str, buckets: Iterable[float], labels=None, help: str = ""
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first request.

        ``buckets`` applies only at creation; later requests for the same
        series reuse the existing bounds.
        """
        if not self.enabled:
            return NULL_HISTOGRAM
        buckets = tuple(buckets)
        return self._get_or_create(
            name, labels, lambda key: Histogram(name, buckets, key, help), "histogram"
        )

    def stage(self, name: str) -> StageTimer:
        """The :class:`StageTimer` of stage ``name``, shared by its sites."""
        timer = self._stages.get(name)
        if timer is None:
            histogram = self.histogram(
                "stage_seconds",
                LATENCY_BUCKETS,
                labels={"stage": name},
                help="wall-clock seconds per timed stage",
            )
            timer = self._stages[name] = StageTimer(name, histogram, self.profiler)
        return timer

    def attach_profiler(self, profiler) -> None:
        """Make ``profiler`` a sink of every stage timer (``None`` detaches).

        Takes effect at once, for stages of components already built and
        of those built later: anything with ``record(stage, started,
        ended)``, in practice a :class:`~repro.obs.profile.StageProfiler`.
        """
        self.profiler = profiler
        for timer in self._stages.values():
            timer.profiler = profiler

    def instance_labels(self, kind: str) -> Labels:
        """A fresh per-instance label set: ``kind=<kind>, instance=<seq>``.

        Components that need private series (each fabric's counters, each
        NIC's drop breakdown) call this once at construction; aggregate
        views recover totals with :meth:`total` filtered by ``kind``.

        Inside a :meth:`node_scope` block the set additionally carries
        ``node=<node>``, namespacing every series the component creates to
        its fleet node (the tuple stays sorted: instance < kind < node).
        """
        self._instance_seq += 1
        labels = (("instance", str(self._instance_seq)), ("kind", kind))
        if self.node is not None:
            labels = labels + (("node", str(self.node)),)
        return labels

    @contextmanager
    def node_scope(self, node: str):
        """Attribute components built inside the block to fleet node ``node``.

        Components capture their labels at construction via
        :meth:`instance_labels`, so wrapping construction is enough::

            with registry.node_scope("collector-3"):
                collector = Collector(config, collector_id=3)

        Every series the collector's NIC, memory region and stores create
        now carries ``node="collector-3"``; ``snapshot().filter_labels`` and
        the ``repro obs fleet`` dashboard group on that label.  Scopes nest
        (inner wins) and always restore the previous node on exit.
        """
        previous = self.node
        self.node = node
        try:
            yield self
        finally:
            self.node = previous

    # ------------------------------------------------------------------
    # Aggregation and introspection
    # ------------------------------------------------------------------

    def samples(self, name: str) -> List[Tuple[Dict[str, str], Metric]]:
        """All series registered under ``name`` as (label dict, metric)."""
        return [
            (dict(labels), metric)
            for labels, metric in self._series.get(name, {}).items()
        ]

    def total(self, name: str, **label_filters: str) -> float:
        """Sum of a counter/gauge family across label sets.

        Keyword arguments filter on label values, e.g.
        ``total("fabric_frames_offered", kind="ImpairedFabric")``.
        """
        out = 0.0
        for labels, metric in self._series.get(name, {}).items():
            if metric.kind == "histogram":
                continue
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in label_filters.items()):
                out += metric.value
        return out

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._series)

    # ------------------------------------------------------------------
    # Snapshot / reset / exposition
    # ------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of every live series (family help included)."""
        samples: Dict[Tuple[str, Labels], tuple] = {}
        help_texts: Dict[str, str] = {}
        for name, family in self._series.items():
            for labels, metric in family.items():
                if metric.help and name not in help_texts:
                    help_texts[name] = metric.help
                if metric.kind == "histogram":
                    samples[(name, labels)] = (
                        "histogram",
                        (metric.counts, metric.sum, metric.bounds),
                    )
                else:
                    samples[(name, labels)] = (metric.kind, metric.value)
        return MetricsSnapshot(samples, help_texts=help_texts)

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition of the live registry."""
        return self.snapshot().to_prometheus(prefix=prefix)


class CounterView:
    """A component's private counters, readable as plain live integers.

    A subclass is one table: ``KIND`` (the default ``kind`` instance
    label) and ``FIELDS``, rows of ``(attribute, handle, metric, help)``.
    Each instance registers one ``metric`` counter per row under fresh
    :meth:`MetricsRegistry.instance_labels` and keeps it as the plain
    instance attribute ``handle`` -- what hot paths increment
    (``counters.c_received.inc()``) -- while ``attribute`` is a read-only
    property returning its current value, so diagnostics and tests read
    ``counters.frames_received`` as an ``int``.  ``repr`` and ``==`` are
    over those values.
    """

    KIND = ""
    FIELDS: Tuple[Tuple[str, str, str, str], ...] = ()

    def __init_subclass__(cls) -> None:
        for attribute, handle, _metric, help_text in cls.FIELDS:

            def read(self, handle=handle) -> int:
                return getattr(self, handle).value

            read.__doc__ = help_text
            setattr(cls, attribute, property(read))

    def __init__(self, registry: "MetricsRegistry", kind: Optional[str] = None) -> None:
        labels = registry.instance_labels(kind or self.KIND)
        for _attribute, handle, metric, _help in self.FIELDS:
            setattr(self, handle, registry.counter(metric, labels=labels))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{row[0]}={getattr(self, row[0])}" for row in self.FIELDS
        )
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        """Value equality over every field (what the determinism tests use)."""
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, row[0]) == getattr(other, row[0]) for row in self.FIELDS
        )
