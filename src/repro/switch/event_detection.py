"""Switch-side event detection: report only when state changes.

Paper section 2: "a non-sampled INT telemetry system requires the
collection of telemetry data from every single packet ... Because of
this, event detection is typically implemented at switches in an effort
to send reports to a collector only when things change.  This helps in
reducing the rate of switch-to-collector communication down to a few
million telemetry reports per second per switch."

This module implements that filter the way event-triggered data-plane
monitoring does it on real ASICs: a hash-indexed register cache keeps a
small digest of the last reported value per cache line; a packet triggers
a report only when its flow's current digest differs from the cached one.
The cache is approximate in both directions:

- *collisions* (two flows sharing a line) cause spurious reports -- each
  flow keeps evicting the other's digest (extra load, never lost data);
- *digest collisions* (different values, same digest) cause missed
  change reports with probability 2^-digest_bits.

The suppression-ratio experiment regenerates the section-2 premise: most
packets do not change flow state, so filtered report rates drop by orders
of magnitude.

Kept on purpose: backs the section-2 event-detection exhibit in
EXPERIMENTS.md (``bench_event_detection.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hashing.hash_family import HashFamily, Key
from repro.switch.externs import RegisterArray

#: Hash-family member for cache-line selection.
_LINE_FUNCTION_INDEX = 0x30000000
#: Hash-family member for value digests.
_DIGEST_FUNCTION_INDEX = 0x30000001


@dataclass
class DetectorStats:
    """Counters the suppression experiment reads."""

    packets_observed: int = 0
    reports_triggered: int = 0

    @property
    def suppression_ratio(self) -> float:
        """Packets per report (higher = more filtering)."""
        if self.reports_triggered == 0:
            return float("inf") if self.packets_observed else float("nan")
        return self.packets_observed / self.reports_triggered


class ChangeDetector:
    """Per-flow change detection in switch SRAM.

    Parameters
    ----------
    cache_lines:
        Number of register cells (flows hash into these; collisions are
        the accuracy/SRAM trade).
    digest_bits:
        Width of the stored value digest (<= 32 to fit one register).
    seed:
        Hash seed; need not match the DART deployment seed.
    """

    def __init__(
        self, cache_lines: int = 1 << 16, digest_bits: int = 16, seed: int = 0
    ) -> None:
        if cache_lines < 1:
            raise ValueError(f"cache_lines must be >= 1, got {cache_lines}")
        if not 1 <= digest_bits <= 31:
            raise ValueError(f"digest_bits must be in [1, 31], got {digest_bits}")
        self.cache_lines = cache_lines
        self.digest_bits = digest_bits
        self._family = HashFamily(seed=seed)
        # One 32-bit register per line: top bit = valid, low bits = digest.
        self._cache = RegisterArray(size=cache_lines, width_bits=32, name="evt_cache")
        self._digest_mask = (1 << digest_bits) - 1
        self.stats = DetectorStats()

    def __repr__(self) -> str:
        return (
            f"ChangeDetector(cache_lines={self.cache_lines}, "
            f"digest_bits={self.digest_bits})"
        )

    @property
    def sram_bytes(self) -> int:
        """SRAM held by the detector's register cache."""
        return self._cache.sram_bytes

    def _line_of(self, key: Key) -> int:
        return self._family.hash_key_mod(key, _LINE_FUNCTION_INDEX, self.cache_lines)

    def _digest_of(self, value: bytes) -> int:
        return (
            self._family.hash_key(value, _DIGEST_FUNCTION_INDEX)
            & self._digest_mask
        )

    def observe(self, key: Key, value: bytes) -> bool:
        """One packet's telemetry observation; returns whether to report.

        A report fires when the flow's cache line is empty or holds a
        different digest; the line is updated either way -- exactly one
        register read-modify-write per packet, as a P4 stateful ALU does.
        """
        self.stats.packets_observed += 1
        line = self._line_of(key)
        entry = (1 << 31) | self._digest_of(value)
        previous = self._cache.read(line)
        self._cache.write(line, entry)
        if previous == entry:
            return False
        self.stats.reports_triggered += 1
        return True


def suppression_rows(
    *,
    num_flows: int = 2_000,
    packets_per_flow: int = 50,
    change_every: int = 10,
    cache_lines_options=(1 << 8, 1 << 12, 1 << 16),
    digest_bits: int = 16,
    seed: int = 0,
) -> List[dict]:
    """Report suppression vs cache size (the section-2 premise).

    Each flow's telemetry value changes every ``change_every`` packets;
    an ideal detector reports only the changes.  Small caches suffer
    collision-driven spurious reports; the rows quantify how close each
    size gets to ideal.
    """
    # Pre-build the packet stream: (flow, value-version) pairs.  Flows are
    # interleaved round-robin (as a switch sees them) but each flow's
    # version advances monotonically -- state changes are ordered in time.
    stream = []
    versions = [0] * num_flows
    counters = [0] * num_flows
    last_reported = [None] * num_flows
    ideal_reports = 0
    for _ in range(packets_per_flow):
        for flow in range(num_flows):
            counters[flow] += 1
            if counters[flow] % change_every == 0:
                versions[flow] += 1
            stream.append((flow, versions[flow]))
            if last_reported[flow] != versions[flow]:
                ideal_reports += 1
                last_reported[flow] = versions[flow]
    rows = []
    for cache_lines in cache_lines_options:
        detector = ChangeDetector(
            cache_lines=cache_lines, digest_bits=digest_bits, seed=seed
        )
        for flow, version in stream:
            # Values are flow-specific (a flow's path/queue state), so two
            # colliding flows never look identical in the cache.
            value = flow.to_bytes(4, "big") + version.to_bytes(4, "big")
            detector.observe(("flow", flow), value)
        rows.append(
            {
                "cache_lines": cache_lines,
                "sram_kb": detector.sram_bytes / 1024,
                "packets": detector.stats.packets_observed,
                "reports": detector.stats.reports_triggered,
                "suppression_ratio": detector.stats.suppression_ratio,
                "ideal_reports": ideal_reports,
                "report_inflation_vs_ideal": (
                    detector.stats.reports_triggered / ideal_reports
                ),
            }
        )
    return rows
