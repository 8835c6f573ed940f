"""The epoch-versioned shard map: the control plane's answer to "who
serves which keyspace shard *right now*?".

The query front end (:mod:`repro.query`) plans fan-out against keyspace
roles, but a role's serving *node* moves on failover and the epoch bumps
with it.  :class:`ShardMap` freezes one consistent reading of that state
-- ``(epoch, role -> node)`` plus each serving node's region coordinates
-- so a planner can bind a whole multi-shard query to a single table
version and detect staleness (a cached result or an in-flight plan whose
``epoch`` no longer matches the current map must be re-planned).

:func:`shard_map_of` derives a map from any
:class:`~repro.collector.collector.CollectorCluster` and keeps it on the
cluster, so one map serves every query until the epoch moves or
:meth:`~repro.collector.collector.CollectorCluster.promote` rewires a
role; :meth:`~repro.control.controller.FleetController.shard_map` is the
live lookup API deployments use, tagging the map with the controller's
current table-version epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.collector.collector import CollectorCluster


@dataclass(frozen=True)
class ShardAssignment:
    """One keyspace shard binding: role -> serving node, frozen at read.

    Carries the node's region coordinates (rkey, base address) so a query
    backend can build one-sided readers without re-deriving them from
    mutable cluster state mid-plan.  No liveness: a crashed node keeps its
    binding (its READs go unanswered) until a standby is promoted.
    """

    role: int
    node_id: int
    rkey: int
    base_address: int


@dataclass(frozen=True)
class ShardMap:
    """An immutable epoch-consistent view of role -> node assignments."""

    epoch: int
    assignments: Tuple[ShardAssignment, ...]

    def assignment(self, role: int) -> ShardAssignment:
        """The assignment serving keyspace ``role`` (KeyError if unknown)."""
        if not 0 <= role < len(self.assignments):
            raise KeyError(
                f"no shard for role {role}; roles: 0..{len(self.assignments) - 1}"
            )
        return self.assignments[role]

    def node_for(self, role: int) -> int:
        """The node ID currently serving keyspace ``role``."""
        return self.assignment(role).node_id

    def roles(self) -> Tuple[int, ...]:
        """All keyspace roles, in role order."""
        return tuple(a.role for a in self.assignments)


def shard_map_of(cluster: CollectorCluster, epoch: int = 0) -> ShardMap:
    """Freeze the cluster's live role map into a :class:`ShardMap`.

    Deployments without a fleet controller (fixed fleets, unit tests) can
    still hand the query planner an epoch-tagged map; ``epoch`` defaults
    to 0, matching the controller's pre-failover table version.  One map
    is frozen per (epoch, role map) and kept on the cluster until the
    epoch moves or :meth:`CollectorCluster.promote` drops it.
    """
    frozen = cluster.frozen_map
    if frozen is None or frozen.epoch != epoch:
        frozen = cluster.frozen_map = ShardMap(
            epoch=epoch,
            assignments=tuple(
                ShardAssignment(
                    role=role,
                    node_id=node.collector_id,
                    rkey=node.region.rkey,
                    base_address=node.region.base_address,
                )
                for role, node in enumerate(cluster)
            ),
        )
    return frozen
