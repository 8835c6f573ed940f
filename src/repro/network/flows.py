"""Flow workload generation: 5-tuples over fat-tree hosts.

Telemetry keys in the paper's running example are flow 5-tuples
(src IP, dst IP, src port, dst port, protocol).  The generator produces
deterministic, seeded workloads: uniform host pairs or Zipf-popular
destinations (datacenter traffic is heavily skewed -- Roy et al. [44] in
the paper's motivation), with the per-flow packet counts that drive
event-triggered reporting rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

TCP = 6
UDP = 17


@dataclass(frozen=True)
class Flow:
    """A unidirectional transport flow between two hosts."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    src_host: int
    dst_host: int

    @property
    def five_tuple(self) -> Tuple[str, str, int, int, int]:
        """The DART telemetry key for in-band INT (paper Table 1)."""
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)


class FlowGenerator:
    """Seeded flow workload generator over a host population.

    Parameters
    ----------
    num_hosts:
        Size of the host population (use ``topology.num_hosts``).
    host_ip:
        Maps a host index to its IP address; defaults to 10.x.y.z packing.
    seed:
        RNG seed; equal seeds give identical workloads.
    """

    WELL_KNOWN_PORTS = (80, 443, 8080, 5201, 3306, 6379, 9092, 50051)

    def __init__(self, num_hosts: int, host_ip=None, seed: int = 0) -> None:
        if num_hosts < 2:
            raise ValueError(f"need at least 2 hosts, got {num_hosts}")
        self.num_hosts = num_hosts
        self._host_ip = host_ip if host_ip is not None else self._default_ip
        self._rng = np.random.default_rng(seed)

    @staticmethod
    def _default_ip(host: int) -> str:
        return f"10.{(host >> 16) & 0xFF}.{(host >> 8) & 0xFF}.{host & 0xFF}"

    def _make_flow(self, src_host: int, dst_host: int) -> Flow:
        return Flow(
            src_ip=self._host_ip(src_host),
            dst_ip=self._host_ip(dst_host),
            src_port=int(self._rng.integers(32768, 61000)),
            dst_port=int(self._rng.choice(self.WELL_KNOWN_PORTS)),
            protocol=TCP if self._rng.random() < 0.85 else UDP,
            src_host=src_host,
            dst_host=dst_host,
        )

    def uniform(self, count: int) -> List[Flow]:
        """``count`` flows between uniformly random distinct host pairs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        flows = []
        for _ in range(count):
            src = int(self._rng.integers(self.num_hosts))
            dst = int(self._rng.integers(self.num_hosts - 1))
            if dst >= src:
                dst += 1
            flows.append(self._make_flow(src, dst))
        return flows

    def zipf(self, count: int, skew: float = 1.2) -> List[Flow]:
        """``count`` flows whose destinations follow a Zipf law.

        Models skewed datacenter traffic: a few hot services receive most
        flows.  ``skew`` > 1 is the Zipf exponent.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if skew <= 1.0:
            raise ValueError(f"zipf skew must be > 1, got {skew}")
        flows = []
        for _ in range(count):
            dst = int(self._rng.zipf(skew)) - 1
            dst %= self.num_hosts
            src = int(self._rng.integers(self.num_hosts - 1))
            if src >= dst:
                src += 1
            flows.append(self._make_flow(src, dst))
        return flows

    def stream(self, batch: int = 1000) -> Iterator[Flow]:
        """An endless stream of uniform flows, yielded lazily."""
        if batch < 1:
            raise ValueError("batch must be >= 1")

        def _generate() -> Iterator[Flow]:
            while True:
                for flow in self.uniform(batch):
                    yield flow

        return _generate()

    def packet_counts(self, num_flows: int) -> np.ndarray:
        """Per-flow packet counts: mostly mice (mean 50), 5% elephants.

        Used by the event-triggered backends to decide which flows emit
        multiple telemetry events.
        """
        if num_flows < 0:
            raise ValueError("num_flows must be non-negative")
        mice = self._rng.geometric(1.0 / 50.0, size=num_flows)
        heavy = self._rng.random(num_flows) < 0.05
        elephants = self._rng.geometric(1.0 / 5000.0, size=num_flows)
        return np.where(heavy, elephants, mice).astype(np.int64)
