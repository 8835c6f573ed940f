"""``repro.obs``: the process-wide observability subsystem.

One registry of named counters/gauges/histograms (:mod:`repro.obs.metrics`),
one per-report tracer (:mod:`repro.obs.tracing`), derived pipeline-health
gauges (:mod:`repro.obs.health`), ring-buffer time series scraped from the
registry (:mod:`repro.obs.timeseries`), a declarative SLO/alerting engine
with paper-model conformance rules (:mod:`repro.obs.slo`), and a stage
profiler with Chrome ``trace_event`` export (:mod:`repro.obs.profile`).
Every datapath layer -- fabric, NIC, memory region, switch, stores, query
clients -- instruments itself through the accessors below, capturing its
metrics and stage timers at construction:

>>> from repro import obs
>>> registry = obs.get_registry()          # the process default (enabled)
>>> obs.set_tracer(obs.Tracer())           # opt into tracing
>>> registry.attach_profiler(obs.StageProfiler())  # opt into stage profiles

Metrics are on by default (plain integer adds; the structural counters the
tests reconcile live here).  Tracing defaults to the no-op
:data:`~repro.obs.tracing.NULL_TRACER` and no profiler is attached; neither
picks the datapath -- the call shape alone decides whether spans are per
batch or per frame.  For a fully zero-cost hot path, install a disabled
registry -- components built afterwards receive shared no-op metrics
(``MetricsRegistry(enabled=False)``); the ``bench-obs`` and
``bench-obs-timeseries`` targets prove the overhead budgets either way.
"""

from __future__ import annotations

from repro.obs.bundle import AutoBundler, build_bundle
from repro.obs.fleet import NODE_LABEL, fleet_rows, render_fleet
from repro.obs.health import (
    PipelineHealth,
    QueryHealth,
    render_dashboard,
    render_histogram,
)
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from repro.obs.journal import (
    NULL_JOURNAL,
    EventJournal,
    JournalEvent,
    NullJournal,
    decode_event,
    encode_event,
)
from repro.obs.profile import StageProfiler, StageStats
from repro.obs.selftel import SelfTelemetryExporter
from repro.obs.slo import (
    Alert,
    AlertState,
    SloEngine,
    SloRule,
    conformance_rules,
    default_rules,
    expected_success,
)
from repro.obs.timeseries import MetricsScraper, Series, load_jsonl, sparkline
from repro.obs.trace_analysis import (
    SpanTiming,
    TraceAnalysis,
    TraceAnalyzer,
)
from repro.obs.tracing import (
    EVICTED_TRACE,
    NULL_TRACER,
    UNSAMPLED_TRACE,
    NullTracer,
    Span,
    SpanContext,
    TraceRecord,
    Tracer,
)

#: The process-wide default registry (metrics enabled).
_registry: MetricsRegistry = MetricsRegistry(enabled=True)
#: The process-wide default tracer (tracing off).
_tracer = NULL_TRACER
#: The process-wide default flight-recorder journal (journalling off).
_journal = NULL_JOURNAL


def get_registry() -> MetricsRegistry:
    """The registry components instrument themselves against by default."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous one.

    Components capture metrics at construction, so swap the registry
    *before* building the pipeline under measurement (the CLI and the
    benchmarks do exactly that, restoring the old registry afterwards).
    """
    global _registry
    previous = _registry
    _registry = registry
    return previous


def get_tracer():
    """The tracer components record spans against by default."""
    return _tracer


def set_tracer(tracer) -> object:
    """Install ``tracer`` as the process default; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def get_journal():
    """The flight-recorder journal control-plane events land in by default."""
    return _journal


def set_journal(journal) -> object:
    """Install ``journal`` as the process default; returns the previous one.

    Unlike the registry, the journal is looked up *at record time* (event
    rates are control-plane, not datapath), so installing an
    :class:`EventJournal` mid-run starts capturing immediately.
    """
    global _journal
    previous = _journal
    _journal = journal
    return previous


__all__ = [
    "Alert",
    "AlertState",
    "AutoBundler",
    "NODE_LABEL",
    "build_bundle",
    "fleet_rows",
    "render_fleet",
    "SelfTelemetryExporter",
    "EventJournal",
    "JournalEvent",
    "NullJournal",
    "NULL_JOURNAL",
    "decode_event",
    "encode_event",
    "get_journal",
    "set_journal",
    "Counter",
    "EVICTED_TRACE",
    "MetricsScraper",
    "Series",
    "SloEngine",
    "SloRule",
    "StageProfiler",
    "StageStats",
    "conformance_rules",
    "default_rules",
    "expected_success",
    "load_jsonl",
    "sparkline",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_TRACER",
    "NullTracer",
    "PipelineHealth",
    "QueryHealth",
    "Span",
    "SpanContext",
    "SpanTiming",
    "TraceAnalysis",
    "TraceAnalyzer",
    "TraceRecord",
    "Tracer",
    "UNSAMPLED_TRACE",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "DEPTH_BUCKETS",
    "get_registry",
    "set_registry",
    "get_tracer",
    "set_tracer",
    "render_dashboard",
    "render_histogram",
]
