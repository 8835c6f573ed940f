"""Tests for the P4 switch substrate (repro.switch)."""

import random

import pytest

from repro.core.batch import ReportBatch
from repro.core.config import DartConfig
from repro.collector.collector import CollectorCluster
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.dart_switch import DartSwitch
from repro.switch.externs import MirrorSession, RegisterArray, TofinoRng
from repro.switch.pipeline import MatchActionTable, MatchKind, TableEntry
from repro.rdma.packets import Opcode, RoceV2Packet


class TestRegisterArray:
    def test_read_write(self):
        regs = RegisterArray(size=4, width_bits=32)
        regs.write(2, 0xDEADBEEF)
        assert regs.read(2) == 0xDEADBEEF
        assert regs.read(0) == 0

    def test_width_wraps(self):
        regs = RegisterArray(size=1, width_bits=16)
        regs.write(0, 0x1FFFF)
        assert regs.read(0) == 0xFFFF

    def test_read_and_increment(self):
        regs = RegisterArray(size=1, width_bits=8)
        assert regs.read_and_increment(0) == 0
        assert regs.read_and_increment(0) == 1
        regs.write(0, 255)
        assert regs.read_and_increment(0) == 255
        assert regs.read(0) == 0  # wrapped

    def test_bounds(self):
        regs = RegisterArray(size=2)
        with pytest.raises(IndexError):
            regs.read(2)
        with pytest.raises(IndexError):
            regs.write(-1, 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RegisterArray(size=0)
        with pytest.raises(ValueError):
            RegisterArray(size=1, width_bits=12)

    def test_sram_accounting(self):
        assert RegisterArray(size=100, width_bits=32).sram_bytes == 400


class TestTofinoRng:
    def test_bounds_and_determinism(self):
        rng_a, rng_b = TofinoRng(seed=7), TofinoRng(seed=7)
        samples_a = [rng_a.next(4) for _ in range(100)]
        samples_b = [rng_b.next(4) for _ in range(100)]
        assert samples_a == samples_b
        assert all(0 <= s < 4 for s in samples_a)
        assert len(set(samples_a)) == 4  # all values reached

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            TofinoRng().next(0)


class TestMirrorSession:
    def test_truncation(self):
        mirror = MirrorSession(session_id=1, truncate_to=8)
        assert mirror.clone(b"0123456789abcdef") == b"01234567"
        assert mirror.clone(b"short") == b"short"
        assert mirror.clones_emitted == 2

    def test_no_truncation(self):
        mirror = MirrorSession(session_id=1)
        assert mirror.clone(b"x" * 300) == b"x" * 300


class TestMatchActionTable:
    def test_exact_match(self):
        table = MatchActionTable("t", [MatchKind.EXACT], max_entries=4)
        table.add_entry(TableEntry(match=(5,), action="hit", params={"x": 1}))
        assert table.lookup(5) == ("hit", {"x": 1})
        assert table.lookup(6) is None
        assert table.hits == 1 and table.misses == 1

    def test_capacity_enforced(self):
        table = MatchActionTable("t", [MatchKind.EXACT], max_entries=1)
        table.add_entry(TableEntry(match=(1,), action="a"))
        with pytest.raises(ValueError):
            table.add_entry(TableEntry(match=(2,), action="b"))

    def test_duplicate_exact_rejected(self):
        table = MatchActionTable("t", [MatchKind.EXACT], max_entries=4)
        table.add_entry(TableEntry(match=(1,), action="a"))
        with pytest.raises(ValueError):
            table.add_entry(TableEntry(match=(1,), action="b"))

    def test_arity_enforced(self):
        table = MatchActionTable("t", [MatchKind.EXACT, MatchKind.EXACT], max_entries=4)
        with pytest.raises(ValueError):
            table.add_entry(TableEntry(match=(1,), action="a"))
        with pytest.raises(ValueError):
            table.lookup(1)

    def test_remove_entry(self):
        table = MatchActionTable("t", [MatchKind.EXACT], max_entries=4)
        table.add_entry(TableEntry(match=(1,), action="a"))
        assert table.remove_entry((1,))
        assert not table.remove_entry((1,))
        assert table.lookup(1) is None

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MatchActionTable("t", [], max_entries=4)
        with pytest.raises(ValueError):
            MatchActionTable("t", [MatchKind.EXACT], max_entries=0)

    def test_multi_field_key_matches_the_whole_tuple(self):
        table = MatchActionTable("t", [MatchKind.EXACT] * 2, max_entries=4)
        table.add_entry(TableEntry(match=(1, 2), action="a"))
        assert table.lookup(1, 2) == ("a", {})
        assert table.lookup(2, 1) is None
        assert table.lookup(1, 3) is None
        assert table.hits == 1 and table.misses == 2

    def test_remove_frees_capacity_for_a_new_action(self):
        table = MatchActionTable("t", [MatchKind.EXACT], max_entries=1)
        table.add_entry(TableEntry(match=(1,), action="old"))
        assert table.remove_entry((1,))
        assert len(table) == 0
        table.add_entry(TableEntry(match=(1,), action="new", params={"v": 2}))
        assert table.lookup(1) == ("new", {"v": 2})

    def test_entry_reads_without_counting(self, registry):
        table = MatchActionTable("t", [MatchKind.EXACT], max_entries=2)
        installed = TableEntry(match=(7,), action="a")
        table.add_entry(installed)
        assert table.entry((7,)) is installed
        assert table.entry((8,)) is None
        assert table.hits == 0 and table.misses == 0

    def test_counters_are_per_table_series(self, registry):
        left = MatchActionTable("left", [MatchKind.EXACT], max_entries=2)
        right = MatchActionTable("right", [MatchKind.EXACT], max_entries=2)
        left.add_entry(TableEntry(match=(1,), action="a"))
        left.lookup(1)
        left.lookup(2)
        right.lookup(1)
        snapshot = registry.snapshot()
        assert snapshot.total("switch_table_hits", table="left") == 1
        assert snapshot.total("switch_table_misses", table="left") == 1
        assert snapshot.total("switch_table_hits", table="right") == 0
        assert snapshot.total("switch_table_misses", table="right") == 1

    @pytest.mark.parametrize(
        "fields, value_bytes, entries", [(1, 0, 3), (1, 20, 3), (2, 20, 4)]
    )
    def test_sram_bytes_counts_installed_keys_and_action_data(
        self, fields, value_bytes, entries
    ):
        table = MatchActionTable(
            "t", [MatchKind.EXACT] * fields, max_entries=8,
            entry_value_bytes=value_bytes,
        )
        assert table.sram_bytes == 0
        for i in range(entries):
            table.add_entry(TableEntry(match=(i,) * fields, action="a"))
        assert len(table) == entries
        assert table.sram_bytes == entries * (4 * fields + value_bytes)

    @pytest.mark.parametrize("fields", [1, 2, 3])
    def test_matches_a_dict_under_random_installs(self, fields):
        """Random installs, removals and lookups agree with a plain dict,
        counters included."""
        rng = random.Random(fields)
        table = MatchActionTable("t", [MatchKind.EXACT] * fields, max_entries=16)
        model = {}
        hits = misses = 0
        for step in range(400):
            match = tuple(rng.randrange(4) for _ in range(fields))
            op = rng.randrange(3)
            if op == 0:
                entry = TableEntry(match=match, action=f"a{step}")
                if match in model or len(model) == 16:
                    with pytest.raises(ValueError):
                        table.add_entry(entry)
                else:
                    table.add_entry(entry)
                    model[match] = entry.action
            elif op == 1:
                assert table.remove_entry(match) == (
                    model.pop(match, None) is not None
                )
            else:
                found = table.lookup(*match)
                expected = model.get(match)
                assert (found[0] if found else None) == expected
                hits += expected is not None
                misses += expected is None
        assert len(table) == len(model)
        assert (table.hits, table.misses) == (hits, misses)


def make_deployment(**kwargs):
    defaults = dict(
        slots_per_collector=1 << 10, num_collectors=2, redundancy=2, value_bytes=8
    )
    defaults.update(kwargs)
    config = DartConfig(**defaults)
    cluster = CollectorCluster(config)
    switch = DartSwitch(config, switch_id=1)
    SwitchControlPlane(config).connect_switch(switch, cluster)
    return config, cluster, switch


class TestDartSwitch:
    def test_report_emits_n_valid_frames(self):
        config, _, switch = make_deployment(redundancy=3)
        frames = switch.report(b"flow", b"telem")
        assert len(frames) == 3
        for _collector_id, frame in frames:
            packet = RoceV2Packet.unpack(frame)  # iCRC must validate
            assert packet.bth.opcode == Opcode.RC_RDMA_WRITE_ONLY
            assert packet.reth.dma_length == config.slot_bytes

    def test_frames_target_addressed_slots(self):
        config, _, switch = make_deployment()
        frames = switch.report(b"flow", b"telem")
        resolved = switch.addressing.resolve(b"flow")
        base = 0x100000  # DEFAULT_BASE_ADDRESS
        for (collector_id, frame), slot_index in zip(frames, resolved.slot_indexes):
            packet = RoceV2Packet.unpack(frame)
            assert collector_id == resolved.collector_id
            expected = base + slot_index * config.slot_bytes
            assert packet.reth.virtual_address == expected

    def test_psn_advances_per_collector(self):
        _, _, switch = make_deployment(redundancy=2)
        switch.report(b"flow", b"telem")  # 2 frames to one collector
        collector_id = switch.addressing.collector_of(b"flow")
        assert switch.psn_registers.read(collector_id) == 2

    def test_end_to_end_delivery(self):
        """Switch-crafted frames land in collector memory and are queryable."""
        from repro.core.client import DartQueryClient

        config, cluster, switch = make_deployment()
        for collector_id, frame in switch.report(b"flow-x", b"hopdata!"):
            assert cluster[collector_id].receive_frame(frame)
        client = DartQueryClient(config, reader=cluster.read_slot)
        result = client.query(b"flow-x")
        assert result.answered
        assert result.value == b"hopdata!"

    def test_report_single_uses_rng(self):
        _, cluster, switch = make_deployment()
        seen_copies = set()
        for _ in range(50):
            collector_id, frame = switch.report_single(b"flow", b"telem")
            packet = RoceV2Packet.unpack(frame)
            slot_indexes = switch.addressing.resolve(b"flow").slot_indexes
            base = 0x100000
            for copy_index, slot_index in enumerate(slot_indexes):
                if packet.reth.virtual_address == base + slot_index * 12:
                    seen_copies.add(copy_index)
        assert seen_copies == {0, 1}  # RNG exercises both copy slots

    def test_report_folds_key_once(self, monkeypatch):
        """One key encoding + fold per event whatever N is (N + 2 folds per
        copy before), and still the bytes ``encode_batch`` produces."""
        from repro.core.batch import ReportBatch
        from repro.hashing import hash_family

        _, _, switch = make_deployment(redundancy=3)
        _, _, twin = make_deployment(redundancy=3)
        items = [(("10.0.0.1", "10.0.0.2", 6, 1024 + i, 80), bytes([i]) * 8) for i in range(8)]
        folds = []
        real_fold = hash_family._fold_bytes
        monkeypatch.setattr(
            hash_family, "_fold_bytes", lambda data: folds.append(data) or real_fold(data)
        )
        frames = [frame for key, value in items for _, frame in switch.report(key, value)]
        assert folds == [hash_family.stable_key_bytes(key) for key, _ in items]
        switch.report_single(*items[0])
        assert len(folds) == len(items) + 1
        monkeypatch.undo()

        rows = twin.encode_batch(ReportBatch.from_items(twin.addressing, items)).frames
        assert frames == [row.tobytes() for row in rows]

    def test_craft_frame_rejects_copy_index_out_of_range(self):
        config, _, switch = make_deployment()
        for copy_index in (-1, config.redundancy):
            with pytest.raises(ValueError):
                switch.report(b"flow", b"telem", copy_index)

    def test_missing_collector_entry_raises(self):
        config = DartConfig(slots_per_collector=64, num_collectors=2)
        switch = DartSwitch(config, switch_id=0)  # never provisioned
        with pytest.raises(LookupError):
            switch.report(b"flow", b"x")
        assert switch.counters.drops_no_collector_entry == 1

    def test_sram_accounting_matches_paper_order(self):
        """Paper: ~20 bytes of SRAM per collector."""
        _, _, switch = make_deployment()
        per_collector = switch.sram_bytes_per_collector()
        assert 15 <= per_collector <= 35
        assert switch.sram_bytes_total() > 0

    def test_counters(self):
        _, _, switch = make_deployment(redundancy=2)
        switch.report(b"a", b"1")
        switch.report_single(b"b", b"2")
        assert switch.counters.events_seen == 2
        assert switch.counters.reports_emitted == 3
        assert switch.mirror.clones_emitted == 2


class TestControlPlane:
    @pytest.mark.parametrize("switch_slots, cluster_size", [(128, 4), (64, 2)])
    def test_connect_validates_config_before_installing(self, switch_slots, cluster_size):
        config = DartConfig(slots_per_collector=64, num_collectors=4)
        cluster = CollectorCluster(DartConfig(slots_per_collector=64, num_collectors=cluster_size))
        switch = DartSwitch(DartConfig(slots_per_collector=switch_slots, num_collectors=4), 0)
        plane = SwitchControlPlane(config)
        with pytest.raises(ValueError, match="different DartConfig"):
            plane.connect_switch(switch, cluster)
        assert len(switch.collector_table) == 0
        assert plane.switches == []

    def test_psn_registers_seed_from_the_switchs_own_qp(self):
        config = DartConfig(slots_per_collector=64, num_collectors=2)
        cluster = CollectorCluster(config)
        cluster.node(1).create_reporter_qp(5).expected_psn = 100
        switch = DartSwitch(config, switch_id=5)
        assert SwitchControlPlane(config).connect_switch(switch, cluster) == 2
        assert [switch.psn_registers.read(role) for role in (0, 1)] == [0, 100]
        assert switch.collector_endpoint(1)["qp_number"] == 0x10005


class TestRuntimeReconfiguration:
    def make_plane(self, num_standbys=1, num_switches=2):
        config = DartConfig(
            slots_per_collector=1 << 10,
            num_collectors=2,
            redundancy=2,
            value_bytes=8,
        )
        cluster = CollectorCluster(config, num_standbys=num_standbys)
        plane = SwitchControlPlane(config)
        switches = [DartSwitch(config, switch_id=i) for i in range(num_switches)]
        for switch in switches:
            plane.connect_switch(switch, cluster)
        return config, cluster, plane, switches

    def test_switch_registry_in_id_order(self):
        _, _, plane, switches = self.make_plane(num_switches=3)
        assert [s.switch_id for s in plane.switches] == [0, 1, 2]
        assert plane.switches == switches

    def test_apply_update_validates_config(self):
        config, cluster, plane, _switches = self.make_plane()
        other = DartSwitch(
            DartConfig(slots_per_collector=1 << 9, num_collectors=2),
            switch_id=9,
        )
        endpoint, _psn = cluster.node(0).endpoint_for(9)
        with pytest.raises(ValueError, match="different DartConfig"):
            plane.apply_update(other, 0, endpoint)

    def test_apply_update_validates_role(self):
        config, cluster, plane, switches = self.make_plane()
        endpoint, _psn = cluster.node(0).endpoint_for(0)
        with pytest.raises(ValueError, match="role 2 outside"):
            plane.apply_update(switches[0], 2, endpoint)
        with pytest.raises(ValueError, match="role -1 outside"):
            plane.apply_update(switches[0], -1, endpoint)

    def test_update_collector_returns_what_reinstalls_the_previous_row(self):
        config, cluster, plane, switches = self.make_plane()
        switch = switches[0]
        old = switch.collector_endpoint(0)
        old_psn = switch.psn_registers.read(0)
        standby = cluster.node(2)
        endpoint, _psn = standby.endpoint_for(switch.switch_id)
        previous = plane.apply_update(switch, 0, endpoint, initial_psn=9, epoch=4)
        assert previous == (cluster.node(0).endpoint_for(0)[0], old_psn, 0)
        assert switch.collector_endpoint(0)["mac"] == standby.nic.mac
        assert switch.psn_registers.read(0) == 9
        assert switch.endpoint_epochs[0] == 4
        assert switch.update_collector(0, *previous) == (endpoint, 9, 4)
        assert switch.collector_endpoint(0) == old
        assert sorted(old) == ["base_address", "ip", "mac", "qp_number", "rkey"]

    def test_report_plans_follow_every_row_change(self):
        """A per-event report stamps its role's plan; after an install, a
        re-point and the rollback its frames equal ``encode_batch``'s rows
        for the same report on the same PSN state, so no plan outlives its row."""
        config, cluster, plane, switches = self.make_plane()
        switch = switches[0]
        key = next(
            ("10.0.0.1", "10.0.0.2", port, 80, 6) for port in range(1024, 2048)
            if switch.addressing.collector_of(("10.0.0.1", "10.0.0.2", port, 80, 6)) == 0
        )

        def frames_match_the_batch_path(host_mac):
            psn = switch.psn_registers.read(0)
            frames = [frame for _, frame in switch.report(key, b"telem")]
            switch.psn_registers.write(0, psn)
            batch = ReportBatch.from_items(switch.addressing, [(key, b"telem")])
            rows = switch.encode_batch(batch).frames
            assert frames == [row.tobytes() for row in rows]
            assert {RoceV2Packet.unpack(frame).eth.dst_mac for frame in frames} == {host_mac}

        frames_match_the_batch_path(cluster.node(0).nic.mac)  # as installed
        standby = cluster.node(2)
        endpoint, _psn = standby.endpoint_for(switch.switch_id)
        previous = switch.update_collector(0, endpoint, initial_psn=9, epoch=4)
        frames_match_the_batch_path(standby.nic.mac)
        switch.update_collector(0, *previous)
        frames_match_the_batch_path(cluster.node(0).nic.mac)

    def test_update_collector_on_empty_role_raises(self):
        config = DartConfig(slots_per_collector=64, num_collectors=2)
        switch = DartSwitch(config, switch_id=0)  # never provisioned
        endpoint, _psn = CollectorCluster(config).node(0).endpoint_for(0)
        with pytest.raises(LookupError, match="no collector lookup entry"):
            switch.update_collector(0, endpoint)
        assert switch.collector_endpoint(0) is None

    def test_collector_endpoint_reads_do_not_count_as_lookups(self):
        """Control-plane reads must not pollute data-plane table counters."""
        _, _, plane, switches = self.make_plane()
        switch = switches[0]
        hits_before = switch.collector_table.hits
        misses_before = switch.collector_table.misses
        assert switch.collector_endpoint(0) is not None
        assert switch.collector_endpoint(7) is None
        assert switch.collector_table.hits == hits_before
        assert switch.collector_table.misses == misses_before
