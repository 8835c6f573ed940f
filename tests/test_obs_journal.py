"""The flight-recorder journal: ring semantics, wire codec, SLO wiring."""

import json

import pytest

from repro import obs
from repro.obs.journal import (
    KNOWN_KINDS,
    NULL_JOURNAL,
    EventJournal,
    NullJournal,
    decode_event,
    encode_event,
)


def _with_journal(journal=None):
    journal = journal if journal is not None else EventJournal()
    previous = obs.set_journal(journal)
    return journal, lambda: obs.set_journal(previous)


class TestEventJournal:
    def test_record_assigns_monotonic_seq_and_current_tick(self):
        journal = EventJournal()
        journal.advance(10)
        first = journal.record("failover", "role 0 moved")
        journal.advance(25)
        second = journal.record("epoch_bump", "epoch 2")
        assert (first.seq, first.tick) == (0, 10)
        assert (second.seq, second.tick) == (1, 25)
        assert journal.next_seq == 2

    def test_advance_is_monotone(self):
        journal = EventJournal()
        journal.advance(50)
        journal.advance(20)  # a stale clock must not rewind the journal
        assert journal.tick == 50

    def test_ring_overwrites_oldest_and_keeps_absolute_seq(self):
        journal = EventJournal(capacity=4)
        for index in range(6):
            journal.record("failover", f"event {index}")
        events = list(journal)
        assert [event.seq for event in events] == [2, 3, 4, 5]
        assert journal.overwritten == 2
        assert journal.next_seq == 6

    def test_events_since_cursor_reads(self):
        journal = EventJournal(capacity=8)
        for index in range(5):
            journal.record("failover", f"event {index}")
        assert [e.seq for e in journal.events_since(3)] == [3, 4]
        assert journal.events_since(5) == []
        # A cursor older than the retained window returns what's left.
        small = EventJournal(capacity=2)
        for index in range(5):
            small.record("failover", f"event {index}")
        assert [e.seq for e in small.events_since(0)] == [3, 4]

    def test_events_filter_and_tail(self):
        journal = EventJournal()
        journal.record("failover", "a")
        journal.record("epoch_bump", "b")
        journal.record("failover", "c")
        assert [e.message for e in journal.events() if e.kind == "failover"] == ["a", "c"]
        assert [e.message for e in journal.tail(2)] == ["b", "c"]

    def test_attrs_stringified_and_sorted(self):
        journal = EventJournal()
        event = journal.record("failover", "m", zeta=1, alpha="x")
        assert event.attrs == (("alpha", "x"), ("zeta", "1"))
        assert event.attr("alpha") == "x"
        assert event.attr("missing") is None

    def test_unknown_kind_rejected(self):
        journal = EventJournal()
        with pytest.raises(ValueError):
            journal.record("made-up-kind", "m")

    def test_render_and_rows_are_json_friendly(self):
        journal = EventJournal()
        journal.advance(7)
        journal.record("slo_alert", "rule: ok -> firing", rule="r")
        rendered = journal.render()
        assert "slo_alert" in rendered and "@7" in rendered
        row = journal.tail(1)[0].to_row()
        json.dumps(row)  # must serialise cleanly
        assert row["kind"] == "slo_alert"

    def test_null_journal_is_a_noop(self):
        assert isinstance(NULL_JOURNAL, NullJournal)
        NULL_JOURNAL.advance(5)
        assert NULL_JOURNAL.record("failover", "ignored") is None
        assert len(NULL_JOURNAL) == 0
        assert NULL_JOURNAL.events_since(0) == []

    def test_process_accessors_swap_and_restore(self):
        journal, restore = _with_journal()
        try:
            assert obs.get_journal() is journal
            obs.get_journal().record("failover", "caught")
            assert len(journal) == 1
        finally:
            restore()
        assert obs.get_journal() is not journal


class TestWireCodec:
    def test_round_trip_preserves_identity_fields(self):
        journal = EventJournal()
        journal.advance(123)
        event = journal.record(
            "plan_apply", "role 0: node 0 -> node 4", trace_id=909
        )
        decoded = decode_event(encode_event(event, 64))
        assert decoded is not None
        assert (decoded.seq, decoded.tick) == (event.seq, event.tick)
        assert decoded.kind == "plan_apply"
        assert decoded.message == "role 0: node 0 -> node 4"
        assert decoded.trace_id == 909

    def test_record_is_exactly_record_bytes(self):
        journal = EventJournal()
        event = journal.record("failover", "x")
        for size in (32, 64, 128):
            assert len(encode_event(event, size)) == size

    def test_long_message_truncated_not_fatal(self):
        journal = EventJournal()
        event = journal.record("failover", "y" * 500)
        decoded = decode_event(encode_event(event, 64))
        assert decoded is not None
        assert decoded.kind == "failover"
        assert decoded.message.startswith("yyy")
        assert len(decoded.message) < 500

    def test_garbage_decodes_to_none(self):
        assert decode_event(b"") is None
        assert decode_event(b"\x00" * 64) is None
        assert decode_event(b"\xff" * 64) is None

    def test_all_known_kinds_survive_the_wire(self):
        journal = EventJournal()
        for kind in KNOWN_KINDS:
            event = journal.record(kind, f"msg-{kind}")
            decoded = decode_event(encode_event(event, 64))
            assert decoded is not None and decoded.kind == kind


class TestControlPlaneJournaling:
    def test_slo_transitions_are_journaled_and_hooks_fire(self):
        journal, restore = _with_journal()
        try:
            registry = obs.MetricsRegistry(enabled=True)
            previous = obs.set_registry(registry)
            try:
                counter = registry.counter("demo_total")
                scraper = obs.MetricsScraper(registry)
                engine = obs.SloEngine(scraper, registry)
                engine.add_rule(
                    obs.SloRule(
                        name="demo-high",
                        expr="demo_total",
                        comparator=">",
                        threshold=5,
                        for_ticks=2,
                    )
                )
                fired = []
                engine.add_fire_hook(
                    lambda alert, tick: fired.append((alert.rule.name, tick))
                )
                engine.evaluate(1)  # ok
                counter.inc(10)
                engine.evaluate(2)  # pending
                engine.evaluate(3)  # firing
                assert fired == [("demo-high", 3)]
                kinds = [e.kind for e in journal]
                assert kinds.count("slo_alert") == 2
                messages = [e.message for e in journal if e.kind == "slo_alert"]
                assert any("ok -> pending" in m for m in messages)
                assert any("pending -> firing" in m for m in messages)
            finally:
                obs.set_registry(previous)
        finally:
            restore()

    def test_ring_overwrite_journaled_by_append_translator(self):
        from repro.primitives import AppendStore

        journal, restore = _with_journal()
        try:
            store = AppendStore(capacity=4, record_bytes=8)
            writer = store.register_writer(0)
            writer.append_many([b"r%d" % i for i in range(10)])
            events = [e for e in journal.events() if e.kind == "ring_overwrite"]
            assert events, "lapping the ring must journal an overwrite"
            assert sum(int(e.attr("overwritten")) for e in events) == 6
        finally:
            restore()


class TestTraceCorrelation:
    def test_record_defaults_to_the_active_trace(self):
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            journal = EventJournal()
            trace_id = tracer.begin("failover", key="role-0")
            with tracer.activate(trace_id):
                event = journal.record("failover", "role 0 moved")
            assert event.trace_id == trace_id
            # Outside any active trace nothing is invented.
            assert journal.record("failover", "later").trace_id is None
            # An explicit id always wins over the ambient one.
            with tracer.activate(trace_id):
                explicit = journal.record("failover", "pinned", trace_id=7)
            assert explicit.trace_id == 7
        finally:
            obs.set_tracer(previous)

    def test_trace_id_surfaces_in_row_and_render(self):
        journal = EventJournal()
        event = journal.record("plan_apply", "node 0 -> 4", trace_id=909)
        assert event.to_row()["trace_id"] == 909
        assert "trace=909" in event.render()
        bare = journal.record("plan_apply", "no trace")
        assert "trace_id" not in bare.to_row()
