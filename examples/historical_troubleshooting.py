#!/usr/bin/env python
"""Historical queries with epoch-based persistence (paper section 5.2.1).

Line-rate DRAM ingestion cannot hold history, so DART proposes rotating
the live region into slower persistent storage per epoch.  This script
plays out the scenario the paper motivates -- "troubleshoot a previous
outage":

1. three epochs of INT traffic flow through a deployment, with the region
   archived (gzip to disk) and cleared at each boundary;
2. during epoch 1, flows through one aggregation switch took a detour --
   the incident we later investigate;
3. the operator replays the *historical* epoch with the standard query
   path to confirm which flows were affected, while live data stays
   untouched.

Run:  python examples/historical_troubleshooting.py
"""

import tempfile
from pathlib import Path

from repro.core.config import DartConfig
from repro.core.reporter import DartReporter
from repro.collector.collector import CollectorCluster
from repro.collector.epochs import EpochArchive, EpochManager
from repro.network.flows import FlowGenerator
from repro.network.simulation import decode_path, encode_path
from repro.network.topology import FatTreeTopology


def main() -> None:
    tree = FatTreeTopology(k=4)
    config = DartConfig(slots_per_collector=1 << 14, num_collectors=1)
    cluster = CollectorCluster(config)
    reporter = DartReporter(config)

    archive_dir = Path(tempfile.mkdtemp(prefix="dart-epochs-"))
    archive = EpochArchive(config, directory=archive_dir)
    manager = EpochManager(list(cluster), archive)
    print(f"archiving epochs to {archive_dir}\n")

    generator = FlowGenerator(tree.num_hosts, host_ip=tree.host_ip, seed=3)
    epochs = 3
    affected_by_epoch = {}

    for epoch in range(epochs):
        flows = generator.uniform(800)
        affected = []
        for flow in flows:
            path = tree.path(flow.src_host, flow.dst_host, flow.five_tuple)
            if epoch == 1 and len(path) == 5:
                # The incident: core detours during epoch 1 added a hop
                # marker (simulated here by rewriting the recorded path).
                path = path[:2] + [999] + path[2:4]
                affected.append(flow.five_tuple)
            for write in reporter.writes_for(flow.five_tuple, encode_path(path)):
                cluster[write.collector_id].write_slot(
                    write.slot_index, write.payload
                )
        affected_by_epoch[epoch] = affected
        manager.rotate()
        print(
            f"epoch {epoch}: {len(flows)} flows ingested, "
            f"{len(affected)} affected by the incident, region archived"
        )

    print(f"\narchived epochs on disk: {archive.epochs()}")

    # --- Investigation: why did epoch-1 latencies spike? ----------------
    print("\nreplaying epoch 1 against the archive:")
    suspects = affected_by_epoch[1][:5]
    for key in suspects:
        result = archive.query(1, key)
        path = decode_path(result.value) if result.answered else None
        detoured = path is not None and 999 in path
        print(f"  {key}: path={path} detoured={detoured}")
        assert detoured

    # The same flows in epoch 2 (after the fix) show normal paths.
    print("\nthe same flows in epoch 2's archive (different flows live then):")
    clean = archive.query(2, suspects[0])
    print(
        f"  {suspects[0]}: "
        f"{'aged out of epoch 2 (expected -- different flows)' if not clean.answered else decode_path(clean.value)}"
    )

    # Live region is empty after the final rotation: history is history.
    from repro.core.client import DartQueryClient

    live = DartQueryClient(config, reader=cluster.read_slot)
    assert not live.query(suspects[0]).answered
    print("\nlive region clean; incident fully reconstructible from archives")


if __name__ == "__main__":
    main()
