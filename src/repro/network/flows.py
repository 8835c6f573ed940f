"""Flow workload generation: 5-tuples over fat-tree hosts.

Telemetry keys in the paper's running example are flow 5-tuples
(src IP, dst IP, src port, dst port, protocol).  The generator produces
deterministic, seeded workloads of uniformly random host pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

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
        Maps a host index to its IP address (``topology.host_ip``).
    seed:
        RNG seed; equal seeds give identical workloads.
    """

    WELL_KNOWN_PORTS = (80, 443, 8080, 5201, 3306, 6379, 9092, 50051)

    def __init__(self, num_hosts: int, host_ip, seed: int = 0) -> None:
        if num_hosts < 2:
            raise ValueError(f"need at least 2 hosts, got {num_hosts}")
        self.num_hosts = num_hosts
        self._host_ip = host_ip
        self._rng = np.random.default_rng(seed)

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
