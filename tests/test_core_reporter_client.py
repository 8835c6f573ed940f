"""Tests for the write path (DartReporter) and read path (DartQueryClient)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.core.policies import QueryOutcome, ReturnPolicy
from repro.core.reporter import DartReporter
from repro.collector.collector import CollectorCluster


def make_config(**kwargs):
    defaults = dict(
        slots_per_collector=1 << 10, num_collectors=2, redundancy=2, value_bytes=8
    )
    defaults.update(kwargs)
    return DartConfig(**defaults)


class TestReporter:
    def test_writes_for_structure(self):
        config = make_config(redundancy=3)
        reporter = DartReporter(config)
        writes = reporter.writes_for(b"key", b"value")
        assert len(writes) == 3
        assert {w.copy_index for w in writes} == {0, 1, 2}
        # All copies carry identical payload to the same collector.
        assert len({w.payload for w in writes}) == 1
        assert len({w.collector_id for w in writes}) == 1
        assert writes[0].payload_bytes == config.slot_bytes

    def test_payload_is_checksum_plus_value(self):
        config = make_config()
        reporter = DartReporter(config)
        writes = reporter.writes_for(b"key", b"val")
        checksum, value = config.slot_codec().decode(writes[0].payload)
        assert checksum == reporter.addressing.checksum_of(b"key")
        assert value == b"val".ljust(8, b"\x00")

    def test_write_for_copy_matches_writes_for(self):
        config = make_config()
        reporter = DartReporter(config)
        full = reporter.writes_for(b"key", b"val")
        single = reporter.write_for_copy(b"key", b"val", 1)
        assert single == full[1]

    def test_write_for_copy_bounds(self):
        reporter = DartReporter(make_config(redundancy=2))
        with pytest.raises(ValueError):
            reporter.write_for_copy(b"key", b"val", 2)

    def test_reduced_redundancy_override(self):
        config = make_config(redundancy=4)
        reporter = DartReporter(config, redundancy=2)
        assert len(reporter.writes_for(b"key", b"val")) == 2

    def test_redundancy_override_cannot_exceed_config(self):
        with pytest.raises(ValueError):
            DartReporter(make_config(redundancy=2), redundancy=3)
        with pytest.raises(ValueError):
            DartReporter(make_config(), redundancy=0)

    def test_counters(self):
        reporter = DartReporter(make_config(redundancy=2))
        reporter.writes_for(b"a", b"1")
        reporter.writes_for(b"b", b"2")
        assert reporter.reports_generated == 2
        assert reporter.writes_generated == 4

    def test_network_bytes_per_report(self):
        config = make_config(redundancy=2)  # slot = 4 + 8 = 12 bytes
        reporter = DartReporter(config)
        assert reporter.network_bytes_per_report() == 24
        assert reporter.network_bytes_per_report(overhead_per_packet=58) == 140
        with pytest.raises(ValueError):
            reporter.network_bytes_per_report(overhead_per_packet=-1)

    def test_oversize_value_rejected(self):
        reporter = DartReporter(make_config(value_bytes=4))
        with pytest.raises(ValueError):
            reporter.writes_for(b"key", b"too-long-value")


class TestWriteReadRoundtrip:
    def make_pair(self, **kwargs):
        config = make_config(**kwargs)
        cluster = CollectorCluster(config)
        reporter = DartReporter(config)
        client = DartQueryClient(config, reader=cluster.read_slot)
        return config, cluster, reporter, client

    def apply(self, cluster, writes):
        for write in writes:
            cluster[write.collector_id].write_slot(write.slot_index, write.payload)

    def test_written_key_is_queryable(self):
        """Invariant: with no intervening writes, a written key answers."""
        _, cluster, reporter, client = self.make_pair()
        self.apply(cluster, reporter.writes_for(b"flow-1", b"path-a"))
        result = client.query(b"flow-1")
        assert result.answered
        assert result.value == b"path-a\x00\x00"
        assert result.matches == 2

    def test_unwritten_key_is_empty(self):
        _, _, _, client = self.make_pair()
        result = client.query(b"never-written")
        assert result.outcome is QueryOutcome.EMPTY

    def test_latest_write_wins(self):
        _, cluster, reporter, client = self.make_pair()
        self.apply(cluster, reporter.writes_for(b"flow-1", b"old-path"))
        self.apply(cluster, reporter.writes_for(b"flow-1", b"new-path"))
        assert client.query(b"flow-1").value == b"new-path"

    def test_per_query_policy_override(self):
        _, cluster, reporter, client = self.make_pair()
        self.apply(cluster, reporter.writes_for(b"k", b"v"))
        strict = client.query(b"k", policy=ReturnPolicy.CONSENSUS_2)
        assert strict.answered  # both copies intact, count == 2

    def test_partial_overwrite_still_answers_with_plurality(self):
        config, cluster, reporter, client = self.make_pair()
        self.apply(cluster, reporter.writes_for(b"victim", b"truth"))
        # Manually stomp one of the victim's two slots with garbage.
        victim = reporter.addressing.resolve(b"victim")
        cluster[victim.collector_id].write_slot(
            victim.slot_indexes[0], b"\xff" * config.slot_bytes
        )
        result = client.query(b"victim")
        assert result.answered and result.value == b"truth\x00\x00\x00"
        assert result.matches == 1

    def test_full_overwrite_yields_empty(self):
        config, cluster, reporter, client = self.make_pair()
        self.apply(cluster, reporter.writes_for(b"victim", b"truth"))
        victim = reporter.addressing.resolve(b"victim")
        for slot_index in victim.slot_indexes:
            cluster[victim.collector_id].write_slot(
                slot_index, b"\x00" * config.slot_bytes
            )
        # Zeroed slots have checksum 0; victim's checksum is almost surely
        # not 0, so the query comes back empty (not an error).
        result = client.query(b"victim")
        assert result.outcome is QueryOutcome.EMPTY

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2**32), min_size=1, max_size=30, unique=True
        )
    )
    def test_low_load_all_queryable(self, keys):
        """At load << 1 with N=2, every key should be retrievable."""
        _, cluster, reporter, client = self.make_pair(
            slots_per_collector=1 << 14, num_collectors=1
        )
        for key in keys:
            self.apply(
                cluster, reporter.writes_for(key, key.to_bytes(8, "big"))
            )
        for key in keys:
            result = client.query(key)
            assert result.answered
            assert result.value == key.to_bytes(8, "big")

    def test_queries_executed_counter(self):
        _, _, _, client = self.make_pair()
        client.query(b"a")
        client.query(b"b")
        assert client.queries_executed == 2


class TestBatchQueries:
    def make(self):
        config = make_config()
        cluster = CollectorCluster(config)
        reporter = DartReporter(config)
        client = DartQueryClient(config, reader=cluster.read_slot)
        for i in range(50):
            for write in reporter.writes_for(("f", i), i.to_bytes(8, "big")):
                cluster[write.collector_id].write_slot(
                    write.slot_index, write.payload
                )
        return client

    def test_query_many(self):
        client = self.make()
        keys = [("f", i) for i in range(50)] + [("missing", 1)]
        results = client.query_many(keys)
        assert len(results) == 51
        assert sum(r.answered for r in results.values()) == 50
        assert results[("f", 7)].value == (7).to_bytes(8, "big")

    def test_query_many_deduplicates(self):
        client = self.make()
        before = client.queries_executed
        client.query_many([("f", 1)] * 10)
        assert client.queries_executed == before + 1

    def test_success_fraction(self):
        client = self.make()
        keys = [("f", i) for i in range(25)] + [("nope", i) for i in range(25)]
        assert client.success_fraction(keys) == pytest.approx(0.5)

    def test_success_fraction_empty_rejected(self):
        client = self.make()
        with pytest.raises(ValueError):
            client.success_fraction([])


class TestEventDetectionIntegration:
    def test_detector_gates_dart_reports(self):
        """The full section-2 pipeline: per-packet observations pass the
        change detector; only changes reach the DART store."""
        from repro.collector.store import DartStore
        from repro.switch.event_detection import ChangeDetector

        config = make_config(slots_per_collector=1 << 12)
        store = DartStore(config)
        detector = ChangeDetector(cache_lines=1 << 12)

        reports = 0
        for packet in range(300):
            flow = ("flow", packet % 10)
            state = (packet // 100).to_bytes(4, "big")  # changes twice
            if detector.observe(flow, state):
                store.put(flow, state)
                reports += 1

        # 10 flows x 3 states = 30 reports from 300 packets.
        assert reports == 30
        # The store serves the final state of every flow.
        for i in range(10):
            assert store.get_value(("flow", i)) == (2).to_bytes(4, "big").ljust(
                8, b"\x00"
            )
