"""Tests for the Table-1 telemetry backends (repro.telemetry)."""

import pytest

from repro.core.config import DartConfig
from repro.collector.store import DartStore
from repro.network.flows import FlowGenerator
from repro.network.topology import FatTreeTopology
from repro.telemetry.anomalies import AnomalyEvent, AnomalyKind, FlowAnomalyBackend
from repro.telemetry.failures import FailureEvent, FailureKind, NetworkFailureBackend
from repro.telemetry.int_inband import InbandIntBackend
from repro.telemetry.mirroring import QueryAnswer, QueryMirrorBackend
from repro.telemetry.postcards import PostcardBackend, PostcardMeasurement
from repro.telemetry.traces import TraceAnalysisBackend, WindowStats


@pytest.fixture
def store():
    return DartStore(DartConfig(slots_per_collector=1 << 12, num_collectors=2))


@pytest.fixture
def flow():
    return FlowGenerator(num_hosts=16, host_ip=str, seed=0).uniform(1)[0]


class TestInbandInt:
    def test_sink_report_and_trace(self, store, flow):
        backend = InbandIntBackend(store)
        backend.sink_report(flow, [3, 9, 17, 12, 5])
        assert backend.trace_of(flow) == [3, 9, 17, 12, 5]
        assert backend.reports == 1

    def test_short_path(self, store, flow):
        backend = InbandIntBackend(store)
        backend.sink_report(flow, [7])
        assert backend.trace_of(flow) == [7]

    def test_missing_flow_none(self, store, flow):
        assert InbandIntBackend(store).trace_of(flow) is None

    def test_value_size_requirement(self):
        small = DartStore(DartConfig(value_bytes=8, slots_per_collector=64))
        with pytest.raises(ValueError):
            InbandIntBackend(small)

    def test_with_real_topology(self, store):
        tree = FatTreeTopology(k=4)
        backend = InbandIntBackend(store)
        flows = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=4).uniform(20)
        for f in flows:
            path = tree.path(f.src_host, f.dst_host, f.five_tuple)
            backend.sink_report(f, path)
        for f in flows:
            trace = backend.trace_of(f)
            assert trace == tree.path(f.src_host, f.dst_host, f.five_tuple)


class TestPostcards:
    def test_measurement_roundtrip(self):
        measurement = PostcardMeasurement(
            timestamp_ns=1_700_000_000_000_000_000,
            queue_depth=42,
            egress_port=7,
            hop_latency_ns=1500,
            congestion_flag=True,
        )
        assert PostcardMeasurement.unpack(measurement.pack()) == measurement
        assert len(measurement.pack()) == 20

    def test_per_switch_keys(self, store, flow):
        """Paper: postcard keys concatenate switchID and the 5-tuple."""
        backend = PostcardBackend(store)
        m1 = PostcardMeasurement(1, 10, 1, 100)
        m2 = PostcardMeasurement(2, 20, 2, 200)
        backend.switch_report(5, flow, m1)
        backend.switch_report(9, flow, m2)
        assert backend.hop_measurement(5, flow) == m1
        assert backend.hop_measurement(9, flow) == m2
        assert backend.hop_measurement(6, flow) is None

    def test_path_measurements(self, store, flow):
        backend = PostcardBackend(store)
        for switch_id in (1, 2, 3):
            backend.switch_report(
                switch_id, flow, PostcardMeasurement(switch_id, 0, 0, 0)
            )
        collected = backend.path_measurements(flow, [1, 2, 3, 4])
        assert collected[1].timestamp_ns == 1
        assert collected[3].timestamp_ns == 3
        assert collected[4] is None


class TestMirroring:
    def test_answer_roundtrip(self, store):
        backend = QueryMirrorBackend(store)
        answer = QueryAnswer(matched_packets=100, matched_bytes=64000, last_switch_id=3)
        backend.update_answer(7, answer)
        assert backend.answer_of(7) == answer
        assert backend.answer_of(8) is None

    def test_updates_overwrite(self, store):
        backend = QueryMirrorBackend(store)
        backend.update_answer(1, QueryAnswer(1, 100, 2))
        backend.update_answer(1, QueryAnswer(2, 200, 4))
        assert backend.answer_of(1).matched_packets == 2

    def test_negative_query_id_rejected(self, store):
        with pytest.raises(ValueError):
            QueryMirrorBackend(store).update_answer(-1, QueryAnswer(0, 0, 0))


class TestTraceAnalysis:
    def test_window_roundtrip(self, store, flow):
        backend = TraceAnalysisBackend(store, analysis_id="retrans-hunt")
        stats = WindowStats(
            packets=500, bytes_total=750_000, retransmissions=3, max_gap_ns=90_000
        )
        backend.publish_window(flow.five_tuple, 12, stats)
        assert backend.window_stats(flow.five_tuple, 12) == stats
        assert backend.window_stats(flow.five_tuple, 13) is None

    def test_analyses_are_isolated(self, store, flow):
        a = TraceAnalysisBackend(store, analysis_id="a")
        b = TraceAnalysisBackend(store, analysis_id="b")
        a.publish_window(flow.five_tuple, 0, WindowStats(1, 1, 0, 0))
        assert b.window_stats(flow.five_tuple, 0) is None

    def test_negative_window_rejected(self, store, flow):
        with pytest.raises(ValueError):
            TraceAnalysisBackend(store).key_for(flow.five_tuple, -1)


class TestAnomalies:
    def test_event_roundtrip(self, store, flow):
        backend = FlowAnomalyBackend(store)
        event = AnomalyEvent(
            timestamp_ns=123456789,
            switch_id=17,
            kind=AnomalyKind.LATENCY_SPIKE,
            detail=250_000,
        )
        backend.report_event(flow.five_tuple, event)
        assert backend.last_event(flow.five_tuple, AnomalyKind.LATENCY_SPIKE) == event
        assert backend.last_event(flow.five_tuple, AnomalyKind.PACKET_DROP) is None

    def test_kinds_keyed_independently(self, store, flow):
        """Paper Table 1: key = (flow 5-tuple, anomaly ID)."""
        backend = FlowAnomalyBackend(store)
        spike = AnomalyEvent(1, 1, AnomalyKind.LATENCY_SPIKE, 100)
        drop = AnomalyEvent(2, 2, AnomalyKind.PACKET_DROP, 1)
        backend.report_event(flow.five_tuple, spike)
        backend.report_event(flow.five_tuple, drop)
        assert backend.last_event(flow.five_tuple, AnomalyKind.LATENCY_SPIKE) == spike
        assert backend.last_event(flow.five_tuple, AnomalyKind.PACKET_DROP) == drop


class TestFailures:
    def test_failure_roundtrip(self, store):
        backend = NetworkFailureBackend(store)
        event = FailureEvent(
            timestamp_ns=999,
            kind=FailureKind.LINK_DOWN,
            severity=200,
            debug_code=0xDEAD,
        )
        backend.record_failure(42, "pod3/edge1/port12", event)
        assert backend.lookup(42, "pod3/edge1/port12") == event
        assert backend.lookup(42, "pod3/edge1/port13") is None

    def test_negative_id_rejected(self, store):
        with pytest.raises(ValueError):
            NetworkFailureBackend.key_for(-1, "x")


class TestBackendCommon:
    def test_oversize_value_rejected(self, flow):
        tiny = DartStore(DartConfig(value_bytes=4, slots_per_collector=64))
        backend = FlowAnomalyBackend(tiny)
        with pytest.raises(ValueError, match="exceeds"):
            backend.report_event(
                flow.five_tuple, AnomalyEvent(1, 1, AnomalyKind.CONGESTION, 0)
            )

    def test_report_then_query_roundtrips(self, store, flow):
        backend = InbandIntBackend(store)
        assert backend.query(flow.five_tuple) is None
        record = backend.report(flow.five_tuple, [4, 5, 6])
        assert record.backend == backend.name
        assert record.value == backend.encode_value([4, 5, 6])
        assert backend.query(flow.five_tuple) == [4, 5, 6]
        assert backend.reports == 1

    def test_backends_share_one_store(self, store, flow):
        """Different backends' keys never clash in the shared region."""
        int_backend = InbandIntBackend(store)
        anomaly_backend = FlowAnomalyBackend(store)
        int_backend.sink_report(flow, [1, 2, 3])
        anomaly_backend.report_event(
            flow.five_tuple, AnomalyEvent(5, 5, AnomalyKind.CONGESTION, 9)
        )
        assert int_backend.trace_of(flow) == [1, 2, 3]
        assert (
            anomaly_backend.last_event(flow.five_tuple, AnomalyKind.CONGESTION)
            is not None
        )
