"""Tests for collector hosts, the store facade, counters and epochs."""

import numpy as np
import pytest

from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy
from repro.collector.collector import Collector, CollectorCluster
from repro.collector.counters import CounterStore
from repro.collector.epochs import EpochArchive, EpochImageMissingError, EpochManager
from repro.collector.store import DartStore
from repro.rdma.frames import FrameBatch


def small_config(**kwargs):
    defaults = dict(
        slots_per_collector=1 << 10, num_collectors=2, redundancy=2, value_bytes=8
    )
    defaults.update(kwargs)
    return DartConfig(**defaults)


class TestCollector:
    def test_construction_and_endpoint(self):
        config = small_config()
        collector = Collector(config, collector_id=1)
        endpoint = collector.endpoint
        assert endpoint.collector_id == 1
        assert endpoint.qp_number == 0x101
        assert endpoint.rkey == 0x1001
        assert endpoint.base_address == 0x100000
        assert endpoint.sram_bytes == 25

    def test_collector_id_validated(self):
        with pytest.raises(ValueError):
            Collector(small_config(num_collectors=2), collector_id=2)

    def test_slot_read_write(self):
        config = small_config()
        collector = Collector(config, 0)
        payload = b"\x01" * config.slot_bytes
        collector.write_slot(5, payload)
        assert collector.read_slot(5) == payload
        assert collector.read_slot(6) == b"\x00" * config.slot_bytes

    def test_slot_bounds_validated(self):
        config = small_config(slots_per_collector=16)
        collector = Collector(config, 0)
        with pytest.raises(ValueError):
            collector.read_slot(16)
        with pytest.raises(ValueError):
            collector.write_slot(-1, b"\x00" * config.slot_bytes)
        with pytest.raises(ValueError):
            collector.write_slot(0, b"\x00")  # wrong size

    def test_clear(self):
        config = small_config()
        collector = Collector(config, 0)
        collector.write_slot(0, b"\xff" * config.slot_bytes)
        collector.clear()
        assert collector.read_slot(0) == b"\x00" * config.slot_bytes


class TestCollectorCluster:
    def test_fleet_size_and_iteration(self):
        cluster = CollectorCluster(small_config(num_collectors=3))
        assert len(cluster) == 3
        assert [c.collector_id for c in cluster] == [0, 1, 2]
        assert cluster[2].collector_id == 2

    def test_endpoints_table(self):
        cluster = CollectorCluster(small_config(num_collectors=3))
        endpoints = cluster.endpoints()
        assert set(endpoints) == {0, 1, 2}
        assert len({e.ip for e in endpoints.values()}) == 3

    def test_total_memory(self):
        config = small_config(slots_per_collector=100, num_collectors=2)
        cluster = CollectorCluster(config)
        assert cluster.total_memory_bytes() == 2 * 100 * config.slot_bytes


class TestDartStore:
    def test_put_get_roundtrip(self):
        store = DartStore(small_config())
        assert store.put(b"flow-1", b"value-1") == 2
        result = store.get(b"flow-1")
        assert result.answered
        assert result.value == b"value-1\x00"

    def test_get_value_none_on_miss(self):
        store = DartStore(small_config())
        assert store.get_value(b"missing") is None

    def test_tuple_keys(self):
        store = DartStore(small_config())
        five_tuple = ("10.0.0.1", "10.0.0.2", 5000, 80, 6)
        store.put(five_tuple, b"trace")
        assert store.get(five_tuple).answered

    def test_policy_override(self):
        store = DartStore(small_config(), policy=ReturnPolicy.PLURALITY)
        store.put(b"k", b"v")
        assert store.get(b"k", policy=ReturnPolicy.CONSENSUS_2).answered

    def test_counters_and_load_factor(self):
        store = DartStore(small_config())
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.get(b"a")
        assert store.puts == 2 and store.gets == 1
        assert store.load_factor() == 2 / 2048
        assert store.load_factor(live_keys=100) == 100 / 2048

    def test_memory_bytes(self):
        config = small_config()
        store = DartStore(config)
        assert store.memory_bytes == config.total_slots * config.slot_bytes

    def test_packet_level_mode_equivalent(self):
        """Packet-level writes yield byte-identical state to in-process."""
        config = small_config(num_collectors=1)
        fast = DartStore(config)
        wire = DartStore(config, packet_level=True)
        for i in range(50):
            key = ("flow", i)
            value = i.to_bytes(8, "big")
            fast.put(key, value)
            assert wire.put(key, value) == 2
        assert (
            fast.cluster[0].region.snapshot() == wire.cluster[0].region.snapshot()
        )

    def test_packet_level_queryable(self):
        store = DartStore(small_config(), packet_level=True)
        store.put(b"k", b"v")
        assert store.get(b"k").answered


class TestCounterStore:
    def test_single_row_counts(self):
        counters = CounterStore(cells_per_row=1 << 12, rows=1)
        for _ in range(5):
            counters.add(b"flow-a")
        counters.add(b"flow-b", amount=3)
        assert counters.estimate(b"flow-a") == 5
        assert counters.estimate(b"flow-b") == 3
        assert counters.estimate(b"flow-never") == 0
        assert counters.total_adds() == 6

    def test_count_min_multiple_rows(self):
        counters = CounterStore(cells_per_row=1 << 10, rows=3)
        counters.add(b"x", amount=7)
        assert counters.estimate(b"x") == 7
        assert counters.total_adds() == 3  # one FETCH_ADD per row

    def test_estimates_are_upper_bounds(self):
        """Collisions can only inflate counts, never deflate them."""
        counters = CounterStore(cells_per_row=8, rows=2)  # force collisions
        truth = {}
        for i in range(50):
            key = ("flow", i % 10)
            counters.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert counters.estimate(key) >= count

    def test_aggregation_across_switches(self):
        """Atomic adds from different reporters commute (sketch merging)."""
        counters = CounterStore(cells_per_row=1 << 10, rows=2)
        # Two 'switches' crafting frames independently.
        craft = counters.translator.craft_add_frames
        frames = craft(b"flow", 2) + craft(b"flow", 3)
        for frame in frames:
            assert counters.nic.receive_frame(frame)
        assert counters.estimate(b"flow") == 5

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CounterStore(cells_per_row=0)
        with pytest.raises(ValueError):
            CounterStore(rows=0)
        with pytest.raises(ValueError):
            CounterStore().translator.craft_add_frames(b"k", amount=-1)


class TestEpochs:
    def test_rotation_archives_and_clears(self):
        config = small_config(num_collectors=1)
        cluster = CollectorCluster(config)
        archive = EpochArchive(config)
        manager = EpochManager(list(cluster), archive)

        store = DartStore(config)
        store.cluster = cluster  # share the collectors
        store.client._reader = cluster.read_slot

        cluster[0].write_slot(0, b"\xaa" * config.slot_bytes)
        assert manager.rotate() == 0  # epoch 0 archived
        assert manager.current_epoch == 1
        assert cluster[0].read_slot(0) == b"\x00" * config.slot_bytes
        assert archive.epochs() == [0]

    def test_historical_query_against_archive(self):
        config = small_config(num_collectors=1)
        cluster = CollectorCluster(config)
        archive = EpochArchive(config)
        manager = EpochManager(list(cluster), archive)

        from repro.core.reporter import DartReporter

        reporter = DartReporter(config)
        for write in reporter.writes_for(b"old-flow", b"old-path"):
            cluster[write.collector_id].write_slot(write.slot_index, write.payload)
        manager.rotate()

        # Live region is now empty; the archive still answers.
        result = archive.query(0, b"old-flow")
        assert result.answered
        assert result.value == b"old-path"

    def test_each_rotation_archives_its_own_epoch(self):
        config = small_config(num_collectors=1)
        cluster = CollectorCluster(config)
        archive = EpochArchive(config)
        manager = EpochManager(list(cluster), archive)

        from repro.core.reporter import DartReporter

        reporter = DartReporter(config)
        for epoch, value in enumerate((b"path-000", b"path-001")):
            for write in reporter.writes_for(b"flow", value):
                cluster[write.collector_id].write_slot(
                    write.slot_index, write.payload
                )
            assert manager.rotate() == epoch
        assert manager.current_epoch == 2
        assert archive.epochs() == [0, 1]
        assert archive.query(0, b"flow").value == b"path-000"
        assert archive.query(1, b"flow").value == b"path-001"

    def test_disk_backed_archive(self, tmp_path):
        config = small_config(num_collectors=1)
        archive = EpochArchive(config, directory=tmp_path)
        image = bytes(config.region_bytes)
        archive.store(3, 0, image)
        assert archive.load(3, 0) == image
        assert archive.epochs() == [3]
        with pytest.raises(KeyError):
            archive.load(4, 0)

    def test_memory_archive_missing_epoch(self):
        archive = EpochArchive(small_config())
        with pytest.raises(KeyError):
            archive.load(0, 0)


class TestFailureInjection:
    def test_dead_host_blackholes_everything(self):
        config = small_config()
        collector = Collector(config, collector_id=0)
        collector.fail()
        assert not collector.alive
        assert collector.receive_frame(b"\x00" * 64) is False
        batch = FrameBatch(
            np.zeros((2, 64), dtype=np.uint8), np.zeros(2, dtype=np.int64)
        )
        assert collector.ingest_batch(batch) == 0
        assert collector.transmit() == []
        assert collector.nic.counters.frames_received == 0  # NIC untouched

    def test_recover_restores_the_ingest_path(self):
        config = small_config()
        collector = Collector(config, collector_id=0)
        collector.fail()
        collector.recover()
        assert collector.alive
        # A garbage frame now reaches the NIC (and is rejected *by* it).
        collector.receive_frame(b"\x00" * 64)
        assert collector.nic.counters.frames_received == 1


class TestClusterRoleMap:
    def make_cluster(self, num_standbys=1, **kwargs):
        return CollectorCluster(
            small_config(**kwargs), num_standbys=num_standbys
        )

    def test_standby_construction(self):
        cluster = self.make_cluster(num_standbys=2)
        assert len(cluster) == 2  # keyspace size, not host count
        assert [n.collector_id for n in cluster.standbys] == [2, 3]
        assert [n.collector_id for n in cluster.all_nodes] == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            CollectorCluster(small_config(), num_standbys=-1)
        # Standby node IDs may exceed the keyspace; negatives may not.
        Collector(small_config(), collector_id=5, standby=True)
        with pytest.raises(ValueError):
            Collector(small_config(), collector_id=-1, standby=True)

    def test_promote_moves_the_role(self):
        cluster = self.make_cluster()
        displaced = cluster.promote(0, 2)
        assert displaced.collector_id == 0
        assert cluster.node_for(0).collector_id == 2
        assert cluster.standbys == []
        assert cluster.role_of(2) == 0
        assert cluster.role_of(0) is None
        # Role-keyed accessors all resolve through the live map.
        assert cluster.collectors[0].collector_id == 2
        assert cluster[0].collector_id == 2
        assert cluster.endpoints()[0].ip == cluster.node(2).nic.ip

    def test_promote_validation(self):
        cluster = self.make_cluster()
        with pytest.raises(ValueError, match="outside"):
            cluster.promote(5, 2)
        with pytest.raises(ValueError, match="not an available standby"):
            cluster.promote(0, 1)  # node 1 serves a role, it is no spare

    def test_withdraw_removes_a_spare(self):
        cluster = self.make_cluster()
        withdrawn = cluster.withdraw(2)
        assert withdrawn.collector_id == 2
        assert cluster.standbys == []
        with pytest.raises(ValueError, match="not in the standby pool"):
            cluster.withdraw(2)

    def test_readmit_requires_recovered_roleless_host(self):
        cluster = self.make_cluster()
        cluster.promote(0, 2)
        node = cluster.node(0)
        node.fail()
        with pytest.raises(ValueError, match="has not recovered"):
            cluster.readmit(0)
        node.recover()
        node.write_slot(0, b"\xaa" * cluster.config.slot_bytes)
        cluster.readmit(0)
        # Readmission zeroes the region: the missed epoch is lost.
        assert node.read_slot(0) == b"\x00" * cluster.config.slot_bytes
        assert cluster.standbys == [node]
        with pytest.raises(ValueError, match="already a standby"):
            cluster.readmit(0)
        with pytest.raises(ValueError, match="still serving"):
            cluster.readmit(2)

    def test_node_lookup_errors(self):
        cluster = self.make_cluster()
        with pytest.raises(KeyError, match="no collector node 9"):
            cluster.node(9)

    def test_read_slot_follows_the_role_map(self):
        cluster = self.make_cluster()
        marker = b"\x42" * cluster.config.slot_bytes
        cluster.node(2).write_slot(7, marker)
        cluster.promote(1, 2)
        assert cluster.read_slot(1, 7) == marker


class TestEpochImageMissingError:
    def test_disk_archive_error_names_the_path(self, tmp_path):
        config = small_config(num_collectors=1)
        archive = EpochArchive(config, directory=tmp_path)
        with pytest.raises(EpochImageMissingError) as excinfo:
            archive.load(7, 0)
        error = excinfo.value
        assert error.epoch == 7
        assert error.collector_id == 0
        assert error.path is not None
        message = str(error)
        assert "collector 0" in message
        assert "epoch 7" in message
        assert str(error.path) in message

    def test_memory_archive_error_has_no_path(self):
        archive = EpochArchive(small_config(num_collectors=1))
        with pytest.raises(EpochImageMissingError) as excinfo:
            archive.load(3, 1)
        error = excinfo.value
        assert error.epoch == 3
        assert error.collector_id == 1
        assert error.path is None
        assert "expected" not in str(error)

    def test_is_a_key_error(self):
        # Pre-existing handlers catch KeyError; the subclass keeps working.
        archive = EpochArchive(small_config(num_collectors=1))
        assert issubclass(EpochImageMissingError, KeyError)
        with pytest.raises(KeyError):
            archive.load(0, 0)
