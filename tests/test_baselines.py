"""Tests for the CPU-collector baselines (repro.baselines)."""

import pytest

from repro.baselines.cost_model import (
    CONFLUO_STORAGE_CYCLES_PER_REPORT,
    DART_MODEL,
    DPDK_CONFLUO_MODEL,
    DPDK_IO_CYCLES_PER_REPORT,
    KAFKA_STORAGE_CYCLES_PER_REPORT,
    SOCKET_IO_CYCLES_PER_REPORT,
    SOCKET_KAFKA_MODEL,
    dpdk_cores_required,
    dpdk_pps_per_core,
)
from repro.baselines.cpu_collector import (
    DpdkConfluoCollector,
    SocketKafkaCollector,
    decode_report,
    encode_report,
)


class TestPaperConstants:
    def test_socket_io_from_paper(self):
        """504e9 cycles / 100e6 reports."""
        assert SOCKET_IO_CYCLES_PER_REPORT * 100_000_000 == 504_000_000_000

    def test_kafka_multiplier(self):
        """'11.5x as many additional cycles required by Kafka'."""
        assert KAFKA_STORAGE_CYCLES_PER_REPORT == pytest.approx(
            11.5 * SOCKET_IO_CYCLES_PER_REPORT, rel=0.001
        )

    def test_dpdk_io_from_paper(self):
        """14e9 cycles / 100e6 reports; '2.7% as much work as sockets'."""
        assert DPDK_IO_CYCLES_PER_REPORT * 100_000_000 == 14_000_000_000
        ratio = DPDK_IO_CYCLES_PER_REPORT / SOCKET_IO_CYCLES_PER_REPORT
        assert ratio == pytest.approx(0.027, abs=0.002)

    def test_confluo_multiplier(self):
        """'114x as many CPU cycles as the costly packet I/O'."""
        assert CONFLUO_STORAGE_CYCLES_PER_REPORT == 114 * DPDK_IO_CYCLES_PER_REPORT

    def test_dart_costs_zero_collector_cycles(self):
        assert DART_MODEL.cycles_for(10**8) == 0


class TestFigure1a:
    def test_normal_datacenter_needs_hundreds_of_cores(self):
        """Paper: '10K switches would require a collection cluster
        containing thousands of CPU cores dedicated to simple packet I/O'
        (at a few million reports/s/switch)."""
        cores = dpdk_cores_required(
            10_000, report_bytes=64, reports_per_switch=2_000_000
        )
        assert cores >= 800

    def test_cores_scale_linearly_with_switches(self):
        small = dpdk_cores_required(10_000, 64)
        large = dpdk_cores_required(100_000, 64)
        assert large == pytest.approx(10 * small, rel=0.01)

    def test_larger_reports_cost_more_cores(self):
        assert dpdk_cores_required(50_000, 128) > dpdk_cores_required(50_000, 64)

    def test_pps_lookup(self):
        assert dpdk_pps_per_core(64) > dpdk_pps_per_core(128)
        with pytest.raises(ValueError):
            dpdk_pps_per_core(256)

    def test_validation(self):
        with pytest.raises(ValueError):
            dpdk_cores_required(-1)
        with pytest.raises(ValueError):
            dpdk_cores_required(1, reports_per_switch=-1)


class TestCostModel:
    def test_figure1b_breakdown(self):
        """Regenerate the Figure 1(b) cycle totals for 100M reports."""
        reports = 100_000_000
        assert SOCKET_KAFKA_MODEL.io_cycles_for(reports) == 504_000_000_000
        assert DPDK_CONFLUO_MODEL.io_cycles_for(reports) == 14_000_000_000
        # Storage dwarfs I/O in both stacks -- the paper's core point.
        assert SOCKET_KAFKA_MODEL.storage_cycles_for(reports) > (
            10 * SOCKET_KAFKA_MODEL.io_cycles_for(reports)
        )
        assert DPDK_CONFLUO_MODEL.storage_cycles_for(reports) > (
            100 * DPDK_CONFLUO_MODEL.io_cycles_for(reports)
        )

    def test_cores_for_rate(self):
        # 1M reports/s on DPDK+Confluo at 3 GHz: 1e6 * 16100 / 3e9 ~ 5.4 cores
        cores = DPDK_CONFLUO_MODEL.cores_for_rate(1_000_000)
        assert 4 < cores < 7

    def test_validation(self):
        with pytest.raises(ValueError):
            SOCKET_KAFKA_MODEL.cycles_for(-1)
        with pytest.raises(ValueError):
            SOCKET_KAFKA_MODEL.cores_for_rate(-1)


class TestReportCodec:
    def test_roundtrip(self):
        wire = encode_report(b"key", b"value-bytes")
        assert decode_report(wire) == (b"key", b"value-bytes")

    def test_truncation_detected(self):
        wire = encode_report(b"key", b"value")
        with pytest.raises(ValueError):
            decode_report(wire[:-2])
        with pytest.raises(ValueError):
            decode_report(b"\x00")

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            encode_report(b"k" * 70000, b"")


class TestSocketKafkaCollector:
    def test_functional_ingest_and_query(self):
        collector = SocketKafkaCollector()
        collector.ingest(encode_report(b"flow-1", b"path-a"))
        collector.ingest(encode_report(b"flow-2", b"path-b"))
        assert collector.query(b"flow-1") == b"path-a"
        assert collector.query(b"missing") is None
        assert collector.reports_ingested == 2
        assert collector.log_size == 2

    def test_latest_value_wins(self):
        collector = SocketKafkaCollector()
        collector.ingest(encode_report(b"flow", b"old"))
        collector.ingest(encode_report(b"flow", b"new"))
        assert collector.query(b"flow") == b"new"

    def test_cycle_ledger_matches_model(self):
        collector = SocketKafkaCollector()
        collector.ingest_batch(
            [encode_report(b"k%d" % i, b"v") for i in range(100)]
        )
        assert collector.ledger.io_cycles == 100 * SOCKET_IO_CYCLES_PER_REPORT
        assert (
            collector.ledger.storage_cycles
            == 100 * KAFKA_STORAGE_CYCLES_PER_REPORT
        )

    def test_partitions_validated(self):
        with pytest.raises(ValueError):
            SocketKafkaCollector(partitions=0)


class TestDpdkConfluoCollector:
    def test_functional_ingest_and_query(self):
        collector = DpdkConfluoCollector()
        collector.ingest(encode_report(b"flow-1", b"v1"))
        collector.ingest(encode_report(b"flow-1", b"v2"))
        assert collector.query(b"flow-1") == b"v2"
        assert collector.history(b"flow-1") == [b"v1", b"v2"]
        assert collector.query(b"other") is None

    def test_cycle_ledger_matches_model(self):
        collector = DpdkConfluoCollector()
        collector.ingest_batch([encode_report(b"k", b"v")] * 50)
        assert collector.ledger.io_cycles == 50 * DPDK_IO_CYCLES_PER_REPORT
        assert (
            collector.ledger.storage_cycles
            == 50 * CONFLUO_STORAGE_CYCLES_PER_REPORT
        )

    def test_stack_comparison_matches_paper_ordering(self):
        """Per report: sockets+Kafka >> DPDK+Confluo >> DART (= 0)."""
        kafka = SocketKafkaCollector()
        confluo = DpdkConfluoCollector()
        report = encode_report(b"k", b"v")
        kafka.ingest(report)
        confluo.ingest(report)
        assert kafka.ledger.total > confluo.ledger.total > 0
