"""Copy placement and collector failure (paper section 3.1).

"Distributing the N copies of per-key telemetry data across N physical
collectors could improve the system resiliency, at the cost of potentially
reduced querying speed.  In DART's current design we ensure that data
duplicates for any one key are held at a single collector."

This experiment quantifies the trade the paper states qualitatively: under
collector failures, what fraction of keys becomes unreadable with

- **single placement** (paper default): all N copies on one collector --
  a failed collector takes out every key it owned;
- **spread placement** (the alternative): copy n of a key goes to an
  independently hashed collector -- a key dies only if *all* its copies'
  collectors failed.

The query-cost side of the trade is structural: single placement answers
from one collector; spread placement contacts up to N.

:func:`failover_convergence_rows` measures the *dynamic* side the static
placement analysis cannot: with the :mod:`repro.control` fleet controller
running, how many logical ticks does a live failover take to converge,
and how many reports are lost in the window between a collector's death
and the switches being re-pointed at the standby?
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.addressing import COLLECTOR_FUNCTION_INDEX
from repro.core.simulator import key_lanes
from repro.hashing.hash_family import HashFamily


def failure_unreadable_fraction(
    *,
    num_keys: int,
    num_collectors: int,
    failed: Sequence[int],
    redundancy: int = 2,
    spread: bool = False,
    seed: int = 0,
) -> float:
    """Fraction of keys with no surviving copy after ``failed`` collectors die.

    Ignores slot collisions (orthogonal to placement); a key is unreadable
    exactly when every collector holding one of its copies has failed.
    """
    if num_keys < 1:
        raise ValueError("num_keys must be >= 1")
    if num_collectors < 1:
        raise ValueError("num_collectors must be >= 1")
    if not set(failed) <= set(range(num_collectors)):
        raise ValueError("failed collector IDs out of range")
    failed_set = np.zeros(num_collectors, dtype=bool)
    failed_set[list(failed)] = True
    # One collector per key, or copy n's own independently hashed one.
    members = (
        range(COLLECTOR_FUNCTION_INDEX + 1, COLLECTOR_FUNCTION_INDEX + 1 + redundancy)
        if spread
        else [COLLECTOR_FUNCTION_INDEX]
    )
    hashes = HashFamily(seed=seed).hash_folded_array(key_lanes(0, num_keys), members)
    return float(failed_set[hashes % np.uint64(num_collectors)].all(axis=0).mean())


def resilience_rows(
    *,
    num_collectors: int = 16,
    failures: Sequence[int] = (1, 2, 4, 8),
    num_keys: int = 200_000,
    redundancy: int = 2,
    seed: int = 0,
) -> List[dict]:
    """Unreadable-key fraction vs number of failed collectors, both placements."""
    rng = np.random.default_rng(seed)
    rows = []
    for failure_count in failures:
        failed = rng.choice(num_collectors, size=failure_count, replace=False)
        single = failure_unreadable_fraction(
            num_keys=num_keys,
            num_collectors=num_collectors,
            failed=failed.tolist(),
            redundancy=redundancy,
            spread=False,
            seed=seed,
        )
        spread = failure_unreadable_fraction(
            num_keys=num_keys,
            num_collectors=num_collectors,
            failed=failed.tolist(),
            redundancy=redundancy,
            spread=True,
            seed=seed,
        )
        fail_fraction = failure_count / num_collectors
        rows.append(
            {
                "collectors": num_collectors,
                "failed": failure_count,
                "unreadable_single": single,
                "unreadable_spread": spread,
                "expected_single": fail_fraction,
                "expected_spread": fail_fraction**redundancy,
                "queries_contact_single": 1,
                "queries_contact_spread": redundancy,
            }
        )
    return rows


def failover_convergence_rows(
    *,
    tick_intervals: Sequence[int] = (25, 50, 100),
    flows: int = 1500,
    num_collectors: int = 4,
    redundancy: int = 2,
    seed: int = 0,
) -> List[dict]:
    """Failover convergence and reports lost vs detection cadence.

    Runs the full packet-level pipeline with one standby, crashes a
    collector halfway through, and measures per detection cadence
    (``tick_interval`` = packets between controller sweeps):

    - ``convergence_packets``: packets between the crash and the applied
      failover plan (the blackhole window);
    - ``reports_lost``: report frames the dead host rejected in that
      window (the fabric counts them as rejected);
    - ``post_failover_success``: queryability for flows traced entirely
      after convergence, next to the section-4 prediction.

    The trend is the figure: a faster control loop shrinks the blackhole
    roughly linearly, while post-failover queryability stays at the
    theoretical rate -- failover fully restores the write path.
    """
    from repro import obs
    from repro.core import theory
    from repro.core.config import DartConfig
    from repro.network.flows import FlowGenerator
    from repro.network.packet_sim import PacketLevelIntNetwork
    from repro.network.simulation import encode_path
    from repro.network.topology import FatTreeTopology

    rows: List[dict] = []
    for tick_interval in tick_intervals:
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            tree = FatTreeTopology(k=4)
            config = DartConfig(
                slots_per_collector=4096,
                redundancy=redundancy,
                num_collectors=num_collectors,
                seed=seed,
            )
            net = PacketLevelIntNetwork(tree, config, num_standbys=1)
            controller = net.enable_control(tick_interval=tick_interval)
            flow_list = FlowGenerator(
                tree.num_hosts, host_ip=tree.host_ip, seed=seed
            ).uniform(flows)
            kill_at = flows // 2
            converged_at = None
            for index, flow in enumerate(flow_list):
                if index == kill_at:
                    net.kill_collector(0)
                net.send(flow)
                if converged_at is None and controller.events:
                    converged_at = index
            if converged_at is None:
                converged_at = flows - 1
            answered = checked = 0
            for flow in flow_list[converged_at + 1:]:
                path = tree.path(
                    flow.src_host, flow.dst_host, flow.five_tuple
                )
                result = net.query_path(flow)
                checked += 1
                if result.value == encode_path(path):
                    answered += 1
            load = flows * redundancy / (
                num_collectors * config.slots_per_collector
            )
            rows.append(
                {
                    "tick_interval": tick_interval,
                    "failovers": int(
                        registry.total("controller_failovers_total")
                    ),
                    "convergence_packets": converged_at - kill_at,
                    # Rejected frames minus failed probes: the report
                    # frames the dead host blackholed before convergence.
                    "reports_lost": int(
                        registry.total("fabric_frames_rejected")
                        - registry.total("controller_probes_failed")
                    ),
                    "post_failover_success": (
                        answered / checked if checked else 0.0
                    ),
                    "theory_success": float(
                        theory.average_queryability(load, redundancy)
                    ),
                }
            )
        finally:
            obs.set_registry(previous)
    return rows
