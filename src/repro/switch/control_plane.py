"""Switch control plane: collector bring-up and table provisioning.

The paper's prototype pairs the P4 program with ~150 lines of Python that
load the global collector lookup table and initialise per-collector state.
This module is that script: every switch it brings up installs, per role,
the row :meth:`~repro.collector.collector.Collector.endpoint_for` derives
on the switch's own responder QP, its PSN register seeded from that QP's
expected PSN.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import DartConfig
from repro.collector.collector import CollectorCluster, CollectorEndpoint
from repro.switch.dart_switch import DartSwitch


class SwitchControlPlane:
    """Provisions DART switches with collector endpoint state.

    Besides bring-up, the control plane keeps a registry of every switch
    it has provisioned so runtime reconfiguration (the
    :mod:`repro.control` failover path) can rewrite one role's endpoint
    on the whole fleet through :meth:`apply_update`.
    """

    def __init__(self, config: DartConfig) -> None:
        self.config = config
        #: Every switch this plane has provisioned, keyed by switch ID.
        self._switches: Dict[int, DartSwitch] = {}

    @property
    def switches(self) -> List[DartSwitch]:
        """The registered fleet, in switch-ID order."""
        return [self._switches[sid] for sid in sorted(self._switches)]

    def _check_config(self, *parts: DartSwitch | CollectorCluster) -> None:
        if any(part.config != self.config for part in parts):
            raise ValueError(
                "switch or cluster was built for a different DartConfig; "
                "addressing would disagree with the rest of the deployment"
            )

    def connect_switch(self, switch: DartSwitch, cluster: CollectorCluster) -> int:
        """Bring one switch up: one row per cluster role; returns rows installed.

        Each switch-collector pair gets a dedicated responder QP (RoCEv2
        sequences PSNs per QP), so independent switches' PSN streams never
        look like duplicates of each other.  Rows are installed under the
        *role* -- the value a switch matches after hashing a key -- not
        the serving host's node ID, which lies outside the keyspace once a
        standby has taken a role over.  Raises ValueError, before anything
        is installed, when the switch or the cluster was built for another
        config: a cluster of a different size would leave roles unmapped.
        """
        self._check_config(switch, cluster)
        for role in range(len(cluster)):
            endpoint, psn = cluster.node_for(role).endpoint_for(switch.switch_id)
            switch.install_collector(role, endpoint, psn)
        self._switches[switch.switch_id] = switch
        return len(cluster)

    def apply_update(
        self,
        switch: DartSwitch,
        role: int,
        endpoint: CollectorEndpoint,
        *,
        initial_psn: int = 0,
        epoch: int = 0,
    ) -> Tuple[CollectorEndpoint, int, int]:
        """Re-point one role on one switch at a new endpoint, live.

        The runtime counterpart of :meth:`connect_switch`: used by the
        failover path to rewrite a failed role's row.  Returns
        :meth:`~repro.switch.dart_switch.DartSwitch.update_collector`'s
        arguments for re-installing the previous row (rollback of a
        partially applied plan).
        """
        self._check_config(switch)
        if not 0 <= role < self.config.num_collectors:
            raise ValueError(f"role {role} outside [0, {self.config.num_collectors})")
        previous = switch.update_collector(role, endpoint, initial_psn, epoch)
        self._switches[switch.switch_id] = switch
        return previous
