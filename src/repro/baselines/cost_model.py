"""Published cost constants behind Figure 1, and the core-count arithmetic.

Provenance (paper section 2):

- *Socket I/O*: "504 billion CPU cycles for processing 100 million
  reports" -> 5,040 cycles/report.
- *Kafka storage*: "11.5x as many additional cycles required by Kafka"
  -> 57,960 cycles/report on top of socket I/O.
- *DPDK PMD I/O*: "only 14 billion CPU cycles for the same number of
  reports (i.e. 2.7% as much work as sockets)" -> 140 cycles/report.
- *Confluo storage*: "an astounding 114x as many CPU cycles as the costly
  packet I/O" -> 15,960 cycles/report on top of DPDK I/O.
- *DPDK receive rates* (Figure 1(a)): "official DPDK PMD performance
  numbers", i.e. the Intel NIC performance report for DPDK 20.11 --
  ~24.6 Mpps per core at 64 B and line-rate-limited ~8.4 Mpps at 128 B
  on 100 GbE (we model the per-core small-packet regime, where the packet
  rate is CPU-bound and roughly inversely proportional to per-packet
  work).
- *Report rates*: "a few million telemetry reports per second per switch"
  (Zhou et al., flow-event telemetry on 6.5 Tbps switches).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cycles per report for socket-based packet I/O (504e9 / 100e6).
SOCKET_IO_CYCLES_PER_REPORT = 5_040
#: Additional cycles per report for Kafka storage (11.5x socket I/O).
KAFKA_STORAGE_CYCLES_PER_REPORT = int(11.5 * SOCKET_IO_CYCLES_PER_REPORT)
#: Cycles per report for DPDK PMD packet I/O (14e9 / 100e6).
DPDK_IO_CYCLES_PER_REPORT = 140
#: Additional cycles per report for Confluo insertion (114x DPDK I/O).
CONFLUO_STORAGE_CYCLES_PER_REPORT = 114 * DPDK_IO_CYCLES_PER_REPORT

#: Single-core DPDK PMD receive rates (packets/second) by frame size,
#: following the Intel DPDK 20.11 NIC performance report regime.
_DPDK_PPS_64B = 24_600_000
_DPDK_PPS_128B = 20_100_000

#: Default per-switch report rate (reports/second), after in-switch event
#: filtering (paper section 2, citing [56]).
DEFAULT_REPORTS_PER_SWITCH = 1_000_000


def dpdk_pps_per_core(report_bytes: int) -> int:
    """Single-core DPDK PMD receive rate for a given frame size.

    Only the two frame sizes the paper evaluates are modelled; they bound
    the realistic telemetry-report range (64 B and 128 B including
    headers).
    """
    if report_bytes <= 64:
        return _DPDK_PPS_64B
    if report_bytes <= 128:
        return _DPDK_PPS_128B
    raise ValueError(
        f"no published rate modelled for {report_bytes}-byte reports"
    )


def dpdk_cores_required(
    num_switches: int,
    report_bytes: int = 64,
    reports_per_switch: int = DEFAULT_REPORTS_PER_SWITCH,
) -> int:
    """CPU cores needed for pure packet I/O at datacenter scale (Fig 1a).

    ``ceil(num_switches * reports_per_switch / per-core pps)`` -- the
    quantity that reaches thousands of cores at 10 K switches.
    """
    if num_switches < 0:
        raise ValueError("num_switches must be non-negative")
    if reports_per_switch < 0:
        raise ValueError("reports_per_switch must be non-negative")
    total_pps = num_switches * reports_per_switch
    per_core = dpdk_pps_per_core(report_bytes)
    return -(-total_pps // per_core)  # ceiling division


@dataclass(frozen=True)
class CostModel:
    """Cycle accounting for one collector stack."""

    name: str
    io_cycles_per_report: int
    storage_cycles_per_report: int

    @property
    def total_cycles_per_report(self) -> int:
        """I/O plus storage cycles per report."""
        return self.io_cycles_per_report + self.storage_cycles_per_report

    def cycles_for(self, reports: int) -> int:
        """Total cycles to ingest ``reports`` reports."""
        if reports < 0:
            raise ValueError("reports must be non-negative")
        return reports * self.total_cycles_per_report

    def io_cycles_for(self, reports: int) -> int:
        """Packet-I/O cycles for ``reports`` reports."""
        return reports * self.io_cycles_per_report

    def storage_cycles_for(self, reports: int) -> int:
        """Storage-insertion cycles for ``reports`` reports."""
        return reports * self.storage_cycles_per_report

    def cores_for_rate(self, reports_per_second: float) -> float:
        """Sustained 3 GHz cores needed to ingest ``reports_per_second``."""
        if reports_per_second < 0:
            raise ValueError("reports_per_second must be non-negative")
        return reports_per_second * self.total_cycles_per_report / 3e9


#: The two stacks of Figure 1(b).
SOCKET_KAFKA_MODEL = CostModel(
    name="sockets + Kafka",
    io_cycles_per_report=SOCKET_IO_CYCLES_PER_REPORT,
    storage_cycles_per_report=KAFKA_STORAGE_CYCLES_PER_REPORT,
)

DPDK_CONFLUO_MODEL = CostModel(
    name="DPDK + Confluo",
    io_cycles_per_report=DPDK_IO_CYCLES_PER_REPORT,
    storage_cycles_per_report=CONFLUO_STORAGE_CYCLES_PER_REPORT,
)

#: DART's collection-path cost: the collector CPU executes zero cycles per
#: report; ingestion is entirely NIC DMA.
DART_MODEL = CostModel(
    name="DART (zero-CPU)", io_cycles_per_report=0, storage_cycles_per_report=0
)
