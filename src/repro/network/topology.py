"""k-ary fat-tree topology with ECMP path selection.

A k-ary fat tree has k pods, each with k/2 edge and k/2 aggregation
switches, plus (k/2)^2 core switches; every edge switch serves k/2 hosts.
Host-to-host paths are 1 hop (same edge switch), 3 hops (same pod) or
5 hops (via core) -- the "5-hop fat-tree" of the paper's INT example.

ECMP is modelled faithfully: when several equal-cost next hops exist, the
choice is a deterministic hash of the flow 5-tuple, so all packets of a
flow follow one path while flows spread across the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

import networkx as nx

from repro.hashing.hash_family import HashFamily


class SwitchRole(Enum):
    """Layer of a fat-tree switch."""

    EDGE = "edge"
    AGGREGATION = "aggregation"
    CORE = "core"


@dataclass(frozen=True)
class SwitchNode:
    """One switch in the fabric."""

    switch_id: int
    role: SwitchRole
    pod: int  # -1 for core switches


class FatTreeTopology:
    """A k-ary fat tree with deterministic ECMP routing.

    Parameters
    ----------
    k:
        Fat-tree arity; must be even and >= 2.  Hosts = k^3/4,
        switches = 5k^2/4.
    """

    def __init__(self, k: int = 4) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")
        self.k = k
        self._ecmp = HashFamily(seed=0)
        self.graph = nx.Graph()
        self.switches: List[SwitchNode] = []
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_switch(self, role: SwitchRole, pod: int) -> int:
        switch_id = len(self.switches)
        node = SwitchNode(switch_id=switch_id, role=role, pod=pod)
        self.switches.append(node)
        self.graph.add_node(("switch", switch_id), node=node)
        return switch_id

    def _build(self) -> None:
        k = self.k
        half = k // 2
        self._edge: List[List[int]] = []
        self._agg: List[List[int]] = []
        self._core: List[int] = []

        for pod in range(k):
            self._edge.append(
                [self._add_switch(SwitchRole.EDGE, pod) for _ in range(half)]
            )
            self._agg.append(
                [self._add_switch(SwitchRole.AGGREGATION, pod) for _ in range(half)]
            )
        for _ in range(half * half):
            self._core.append(self._add_switch(SwitchRole.CORE, -1))

        # Pod wiring: full bipartite edge <-> aggregation inside each pod.
        for pod in range(k):
            for edge in self._edge[pod]:
                for agg in self._agg[pod]:
                    self.graph.add_edge(("switch", edge), ("switch", agg))

        # Core wiring: aggregation switch j in every pod connects to core
        # group j (cores j*half .. j*half+half-1).
        for pod in range(k):
            for j, agg in enumerate(self._agg[pod]):
                for c in range(half):
                    core = self._core[j * half + c]
                    self.graph.add_edge(("switch", agg), ("switch", core))

        # Hosts: half hosts per edge switch, numbered consecutively.
        self.num_hosts = k * half * half
        for host in range(self.num_hosts):
            edge = self.edge_switch_of(host)
            self.graph.add_edge(("host", host), ("switch", edge))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_switches(self) -> int:
        """Total switches in the fabric (5k^2/4)."""
        return len(self.switches)

    def edge_switch_of(self, host: int) -> int:
        """The edge switch serving ``host``."""
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} outside [0, {self.num_hosts})")
        half = self.k // 2
        pod, rest = divmod(host, half * half)
        edge_index = rest // half
        return self._edge[pod][edge_index]

    def pod_of_host(self, host: int) -> int:
        """Pod index of ``host``."""
        half = self.k // 2
        return host // (half * half)

    def host_ip(self, host: int) -> str:
        """Address plan: 10.pod.edge.host-index (fat-tree convention)."""
        half = self.k // 2
        pod, rest = divmod(host, half * half)
        edge_index, host_index = divmod(rest, half)
        return f"10.{pod}.{edge_index}.{host_index + 2}"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _ecmp_pick(self, flow_key: tuple, stage: int, choices: List[int]) -> int:
        """Deterministic ECMP: hash the 5-tuple and the decision stage."""
        index = self._ecmp.hash_key_mod((flow_key, stage), 0, len(choices))
        return choices[index]

    def path(self, src_host: int, dst_host: int, flow_key: tuple) -> List[int]:
        """Switch IDs traversed from ``src_host`` to ``dst_host``.

        The same (src, dst, flow_key) always yields the same path; distinct
        flows hash across the equal-cost choices.  Lengths are 1, 3 or 5
        switches.
        """
        if src_host == dst_host:
            raise ValueError("source and destination host coincide")
        src_edge = self.edge_switch_of(src_host)
        dst_edge = self.edge_switch_of(dst_host)
        if src_edge == dst_edge:
            return [src_edge]

        src_pod = self.pod_of_host(src_host)
        dst_pod = self.pod_of_host(dst_host)
        if src_pod == dst_pod:
            agg = self._ecmp_pick(flow_key, 0, self._agg[src_pod])
            return [src_edge, agg, dst_edge]

        half = self.k // 2
        agg_up = self._ecmp_pick(flow_key, 0, self._agg[src_pod])
        # The chosen aggregation switch constrains the reachable core group.
        agg_index = self._agg[src_pod].index(agg_up)
        core_group = [
            self._core[agg_index * half + c] for c in range(half)
        ]
        core = self._ecmp_pick(flow_key, 1, core_group)
        # Down path is forced: the core's group index names the agg switch.
        agg_down = self._agg[dst_pod][agg_index]
        return [src_edge, agg_up, core, agg_down, dst_edge]
