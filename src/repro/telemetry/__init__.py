"""Telemetry backends: the measurement techniques of paper Table 1.

DART "does not place any specific restriction on the underlying
measurement framework" (section 3): any technique that produces
key -> value records can report through it.  Table 1 lists six; this
package implements all of them against the :class:`~repro.collector.store.DartStore`
API:

================  ===========================  =======================
Backend           Key(s)                       Data
================  ===========================  =======================
In-band INT       flow 5-tuple                 packet-carried path
Postcards         (switch ID, flow 5-tuple)    local measurement
Query mirroring   query ID                     query answer
Trace analysis    analysis-specific            analysis output
Flow anomalies    (5-tuple, anomaly ID)        time, event data
Network failures  (failure ID, location)       time, debug info
================  ===========================  =======================

Kept on purpose: every backend module here is one row of the Table 1
exhibit in EXPERIMENTS.md (``repro.experiments.table1``,
``bench_table1_backends.py``).
"""

from repro.telemetry.backends import TelemetryBackend, TelemetryRecord
from repro.telemetry.int_inband import InbandIntBackend
from repro.telemetry.postcards import PostcardBackend, PostcardMeasurement
from repro.telemetry.mirroring import QueryMirrorBackend
from repro.telemetry.traces import TraceAnalysisBackend, WindowStats
from repro.telemetry.anomalies import AnomalyEvent, AnomalyKind, FlowAnomalyBackend
from repro.telemetry.failures import FailureEvent, FailureKind, NetworkFailureBackend

__all__ = [
    "AnomalyEvent",
    "AnomalyKind",
    "FailureEvent",
    "FailureKind",
    "FlowAnomalyBackend",
    "InbandIntBackend",
    "NetworkFailureBackend",
    "PostcardBackend",
    "PostcardMeasurement",
    "QueryMirrorBackend",
    "TelemetryBackend",
    "TelemetryRecord",
    "TraceAnalysisBackend",
    "WindowStats",
]
