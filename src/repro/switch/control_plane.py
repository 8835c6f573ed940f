"""Switch control plane: collector bring-up and table provisioning.

The paper's prototype pairs the P4 program with ~150 lines of Python that
load the global collector lookup table and initialise per-collector state.
This module is that script: it takes the endpoint table a
:class:`~repro.collector.collector.CollectorCluster` exposes and installs
it into each switch it brings up, seeding the switch's PSN registers from
the collectors' advertised expected PSNs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional

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

    def provision(
        self,
        switch: DartSwitch,
        endpoints: Mapping[int, CollectorEndpoint],
        initial_psns: Mapping[int, int] | None = None,
    ) -> int:
        """Install every collector endpoint into one switch.

        ``endpoints`` is keyed by keyspace *role* -- the value a switch
        matches after hashing a key.  Installing by the mapping key (not
        the endpoint's own ``collector_id``) matters once standbys exist:
        after a failover a role is served by a host whose node ID lies
        outside the keyspace, and the switch must still match the role.

        Returns the number of entries installed.  Raises if the endpoint
        table disagrees with the config's fleet size -- a misprovisioned
        switch would silently blackhole reports for unmapped collectors,
        which is the kind of failure better caught at bring-up.
        """
        if switch.config != self.config:
            raise ValueError(
                "switch was built for a different DartConfig; addressing "
                "would disagree with the rest of the deployment"
            )
        missing = set(range(self.config.num_collectors)) - set(endpoints)
        if missing:
            raise ValueError(
                f"endpoint table missing collector IDs {sorted(missing)}"
            )
        installed = 0
        for role, endpoint in sorted(endpoints.items()):
            psn = 0
            if initial_psns is not None:
                psn = initial_psns.get(role, 0)
            switch.install_collector(
                collector_id=role,
                mac=endpoint.mac,
                ip=endpoint.ip,
                qp_number=endpoint.qp_number,
                rkey=endpoint.rkey,
                base_address=endpoint.base_address,
                initial_psn=psn,
            )
            installed += 1
        self._switches[switch.switch_id] = switch
        return installed

    def connect_switch(self, switch: DartSwitch, cluster: CollectorCluster) -> int:
        """Full bring-up for one switch: per-switch QPs + table install.

        Each switch-collector pair gets a dedicated responder QP (RoCEv2
        sequences PSNs per QP), and the switch's lookup-table entries carry
        that QP number; PSN registers start from the QPs' expected PSNs.
        This is what a fleet deployment uses; :meth:`provision` with shared
        default QPs only suits single-reporter setups.
        """
        endpoints: Dict[int, CollectorEndpoint] = {}
        initial_psns: Dict[int, int] = {}
        for role in range(len(cluster)):
            node = cluster.node_for(role)
            qp = node.create_reporter_qp(switch.switch_id)
            endpoints[role] = replace(node.endpoint, qp_number=qp.qp_number)
            initial_psns[role] = qp.expected_psn
        return self.provision(switch, endpoints, initial_psns=initial_psns)

    def apply_update(
        self,
        switch: DartSwitch,
        role: int,
        endpoint: CollectorEndpoint,
        *,
        initial_psn: int = 0,
        epoch: int = 0,
    ) -> Optional[Dict[str, Any]]:
        """Re-point one role on one switch at a new endpoint, live.

        The runtime counterpart of :meth:`provision`: used by the failover
        path to rewrite a failed role's row.  Returns the switch's previous
        entry parameters (for rollback of a partially applied plan).
        """
        if switch.config != self.config:
            raise ValueError(
                "switch was built for a different DartConfig; addressing "
                "would disagree with the rest of the deployment"
            )
        if not 0 <= role < self.config.num_collectors:
            raise ValueError(
                f"role {role} outside [0, {self.config.num_collectors})"
            )
        previous = switch.update_collector(
            collector_id=role,
            mac=endpoint.mac,
            ip=endpoint.ip,
            qp_number=endpoint.qp_number,
            rkey=endpoint.rkey,
            base_address=endpoint.base_address,
            initial_psn=initial_psn,
            epoch=epoch,
        )
        self._switches[switch.switch_id] = switch
        return previous
