"""One one-sided reader: every READ requester rides ``OneSidedReader``.

``RemoteQueryClient`` is a ``DartQueryClient`` whose slot reads are
``OneSidedReader.read_run`` calls, ``ProbeStation`` probes through the
same reader, and ``FanoutBackend`` already did.  These tests pin what that
buys: three key-query clients that cannot disagree, one loss model (the
fabric's), spans and counters inherited rather than re-written, and QP
collisions refused at construction instead of silently eating reads.
"""

import pytest

from repro import obs
from repro.collector.collector import CollectorCluster
from repro.collector.remote_query import RemoteQueryClient
from repro.control import FailureDetector, FleetMembership, ProbeStation
from repro.control.shards import shard_map_of
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy
from repro.core.reporter import DartReporter
from repro.fabric import ImpairedFabric, InlineFabric
from repro.query.backend import FanoutBackend

from . import rigs

def read_keys(backend, shard_map, keys):
    """Every shard's keys read in one ``keys_rows`` pass: the keys in the
    order read, and their rows."""
    grouped = backend.shards_for(shard_map, keys)
    mine = [key for shard_keys, _resolved in grouped.values() for key in shard_keys]
    shards = backend.keys_rows(
        [shard_map.assignment(role) for role in grouped], mine, ReturnPolicy.PLURALITY,
        [resolved for _keys, resolved in grouped.values()],
    )
    return mine, [row for rows in shards for row in rows]


def populated_cluster():
    """A small fleet written locally: 160 keys into 2 x 128 slots at N=2,
    so some keys lose every copy to a later writer (overwritten)."""
    config = DartConfig(
        slots_per_collector=128, num_collectors=2, value_bytes=8, seed=13
    )
    cluster = CollectorCluster(config)
    reporter = DartReporter(config)
    for i in range(160):
        for write in reporter.writes_for(("flow", i), i.to_bytes(8, "big")):
            cluster[write.collector_id].write_slot(write.slot_index, write.payload)
    keys = [("flow", i) for i in range(160)] + [("absent", i) for i in range(40)]
    return config, cluster, keys


class TestThreeClientsOneAnswer:
    @pytest.mark.parametrize("name", list(rigs.FABRICS))
    def test_local_remote_and_fanout_agree(self, name):
        config, cluster, keys = populated_cluster()
        fabric = cluster.attach_to(rigs.FABRICS[name]())
        local = DartQueryClient(config, reader=cluster.read_slot)
        remote = RemoteQueryClient(config, cluster, max_retries=8, fabric=fabric)
        backend = FanoutBackend(config, cluster, fabric)

        def answers(client):
            results = map(client.query, keys)
            return {key: (r.value, r.answered) for key, r in zip(keys, results)}

        expected = answers(local)
        assert len(expected) == 200
        answered = sum(ok for _value, ok in expected.values())
        assert 0 < answered < 160  # present, overwritten and absent keys

        assert answers(remote) == expected

        mine, rows = read_keys(backend, shard_map_of(cluster), keys)
        assert [(row["value"], row["answered"]) for row in rows] == [
            expected[key] for key in mine
        ]

        readers = [*remote._readers.values(), *backend._keys_readers.values()]
        assert [reader._pool.in_flight for reader in readers] == [0] * 4


class TestInheritedObservability:
    def test_remote_query_records_client_query_span(self, registry):
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            config, cluster, _keys = populated_cluster()
            remote = RemoteQueryClient(config, cluster)
            remote.query(("flow", 159))
            (standalone,) = tracer.traces("query")
            assert "client.query" in standalone.stages

            # Inside an operation the READ legs and the fold share one tree.
            trace_id = tracer.begin("audit")
            with tracer.activate(trace_id):
                remote.query(("flow", 159))
            tracer.end(trace_id)
            stages = tracer.trace(trace_id).stages
            assert stages.count("query.read_run") == config.redundancy
            assert stages.count("client.query") == 1
            assert tracer.bindings_live == 0
        finally:
            obs.set_tracer(previous)

    def test_traced_query_stamps_its_trace_id_as_the_stage_exemplar(self, registry):
        """The README's promise: the ``stage_seconds{stage="client.query"}``
        bucket a traced query landed in links back to its trace."""
        config, cluster, _keys = populated_cluster()
        histogram = registry.stage("client.query").histogram
        DartQueryClient(config, reader=cluster.read_slot).query(("flow", 1))
        assert histogram.count == 1 and histogram.exemplar(0.5) is None
        traced = obs.MetricsRegistry()
        previous_registry = obs.set_registry(traced)
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            DartQueryClient(config, reader=cluster.read_slot).query(("flow", 1))
        finally:
            obs.set_tracer(previous)
            obs.set_registry(previous_registry)
        (record,) = tracer.traces("query")
        histogram = traced.stage("client.query").histogram
        assert histogram.count == 1
        assert histogram.exemplar(0.5) == record.trace_id

    def test_remote_counts_under_its_own_kind(self, registry):
        config, cluster, _keys = populated_cluster()
        remote = RemoteQueryClient(config, cluster)
        remote.query(("flow", 1))
        kinds = {
            dict(labels)["kind"]
            for (name, labels) in registry.snapshot().samples
            if name == "client_queries_executed"
        }
        assert kinds == {"RemoteQueryClient"}
        assert remote.queries_executed == 1
        assert remote.read_requests_sent == config.redundancy
        assert registry.total("primitive_read_requests") == config.redundancy


class TestProbesThroughTheReader:
    def build(self, fabric):
        config = DartConfig(slots_per_collector=64, num_collectors=2)
        cluster = CollectorCluster(config, num_standbys=1)
        cluster.attach_to(fabric)
        return cluster, FleetMembership(cluster)

    def test_same_station_id_twice_refused(self, registry):
        """Two stations on one id would share QPs (and, before, the second
        read a healthy host as dead): the second construction raises."""
        fabric = InlineFabric()
        cluster, membership = self.build(fabric)
        first = ProbeStation(membership, fabric)
        with pytest.raises(ValueError, match="already exists"):
            ProbeStation(membership, fabric)
        other = ProbeStation(membership, fabric, station_id=1)
        for _ in range(5):
            assert first.probe(0) and other.probe(0)

    def test_probe_accounting_reconciles_with_fabric_loss(self, registry):
        fabric = ImpairedFabric(InlineFabric(), loss=0.3, seed=5)
        _cluster, membership = self.build(fabric)
        station = ProbeStation(membership, fabric)
        detector = FailureDetector(station, membership, fail_after=3)
        outcomes = {}
        probe = station.probe

        def recording_probe(node_id):
            ok = probe(node_id)
            outcomes.setdefault(node_id, []).append(ok)
            return ok

        station.probe = recording_probe
        confirmed = []
        for tick in range(30):
            confirmed += detector.sweep(tick)

        lost = fabric.counters.frames_dropped_loss
        assert lost > 0
        assert station.probes_failed == lost
        assert registry.total("fabric_frames_dropped_loss") == lost
        assert registry.total("nic_dropped_psn") == 0  # IGNORE QPs: gaps are fine
        sent = sum(len(results) for results in outcomes.values())
        assert station.probes_sent == sent == fabric.counters.frames_offered
        # Every host is alive, so a verdict is exactly three straight
        # losses -- and a confirmed host is not probed again.
        streaks = {
            node: "".join("-x"[not ok] for ok in results)
            for node, results in outcomes.items()
        }
        assert {member.node_id for member in confirmed} == {
            node for node, streak in streaks.items() if streak.endswith("xxx")
        }
        assert all(streak.count("xxx") <= 1 for streak in streaks.values())


class TestFanoutBackend:
    def build(self, fabric):
        config = DartConfig(slots_per_collector=512, num_collectors=2, seed=11)
        cluster = CollectorCluster(config, num_standbys=1)
        cluster.attach_to(fabric)
        backend = FanoutBackend(config, cluster, fabric)
        keys = [f"flow-{i}" for i in range(80)]
        codec = config.slot_codec()
        for key in keys:
            resolved = backend.addressing.resolve(key)
            for node in (cluster.node(resolved.collector_id), cluster.node(2)):
                for slot in resolved.slot_indexes:
                    node.write_slot(slot, codec.encode(resolved.checksum, key.encode()[:20]))
        return config, cluster, backend, keys

    @pytest.mark.parametrize("name", list(rigs.FABRICS))
    def test_rows_match_direct_client_across_failover(self, name):
        """Long and short shard runs answer like the collector-side client,
        before and after the role's reader is rebound to a standby."""
        fabric = rigs.FABRICS[name]()
        config, cluster, backend, keys = self.build(fabric)
        direct = DartQueryClient(config, reader=cluster.read_slot)

        def check():
            shard_map = shard_map_of(cluster)
            for subset in (keys, keys[:3]):
                mine, rows = read_keys(backend, shard_map, subset)
                assert [row["value"] for row in rows] == [
                    direct.query(key, policy=ReturnPolicy.PLURALITY).value for key in mine
                ]

        check()
        before = backend._keys_reader(shard_map_of(cluster).assignment(0))
        cluster.node(0).fail()
        cluster.promote(0, 2)
        fabric.rebind(0, cluster.node(2))
        check()
        after = backend._keys_reader(shard_map_of(cluster).assignment(0))
        assert after is not before and after.qp.qp_number != before.qp.qp_number
        for reader in backend._keys_readers.values():
            assert reader._pool.in_flight == 0
