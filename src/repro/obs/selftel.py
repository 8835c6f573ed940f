"""Self-telemetry: the observability plane collected over its own primitives.

The paper's thesis is zero-CPU collection -- yet PRs 2-4 read our metrics
through in-process library calls.  This module closes the loop by
dogfooding the DTA primitive set on our own telemetry:

- every scrape, each counter family's *delta* is exported as a real
  **Key-Increment** report -- keyed ``(node, metric_name)`` -- through the
  actual switch→fabric→NIC datapath into a dedicated telemetry counter
  bank (count-min keyspace);
- new :class:`~repro.obs.journal.EventJournal` events are exported as
  fixed-width **Append** records into a dedicated telemetry ring;
- both are read back *one-sided* via
  :class:`~repro.primitives.clients.CounterQueryClient` /
  :class:`~repro.primitives.clients.AppendQueryClient` -- RDMA READs, no
  collector CPU -- so a remote operator tails our metrics and flight
  recorder exactly the way the paper tails switch telemetry.

The export datapath is itself instrumented, which would recurse (exporting
the exporter's own frame counters creates more frame counters).  The
exporter therefore builds its stores under a private *meta-registry* and a
null journal; fold the meta-registry into a
:class:`~repro.obs.fleet.FleetRegistry` to see the export plane's health
without feeding it back into the export stream.

Lowering table (the DESIGN doc reproduces this):

=====================  ==========================  =======================
telemetry fact          DTA primitive               wire verbs
=====================  ==========================  =======================
counter family delta    Key-Increment               ``rows`` RC FETCH_ADD
journal event           Append (fixed 64B record)   1 FETCH_ADD + 1 WRITE
read-back (counters)    one-sided READ              RC RDMA READ per row
read-back (journal)     cursor tail-follow READ     tail READ + slot READs
=====================  ==========================  =======================
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fabric.fabric import Fabric

from repro.obs.journal import (
    NULL_JOURNAL,
    JournalEvent,
    decode_event,
    encode_event,
)
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

#: Telemetry keyspace key for one metric family on one node.
TelemetryKey = Tuple[str, str]

#: Fabric endpoint of the telemetry counter bank's NIC.
COUNTER_ENDPOINT = 0
#: Fabric endpoint of the telemetry ring's NIC.
RING_ENDPOINT = 1

#: Base virtual addresses of the two telemetry regions (disjoint from the
#: datapath defaults, so a shared address-space diagram stays readable).
COUNTER_BANK_ADDRESS = 0x900000
RING_ADDRESS = 0xA00000

#: Telemetry count-min geometry (distinct keys are ~families x nodes, so a
#: few thousand cells suffice).
CELLS_PER_ROW = 1 << 12
ROWS = 2
#: Telemetry Append ring geometry; events are truncated to
#: ``RECORD_BYTES`` on the wire (header + payload).
RING_CAPACITY = 1024
RECORD_BYTES = 64


class SelfTelemetryExporter:
    """Rides scraper ticks, exporting metric deltas and journal events.

    Parameters
    ----------
    registry:
        The registry whose counters are exported; defaults to the process
        registry.
    journal:
        The flight recorder whose events are exported; defaults to the
        process journal (export is a no-op while it is the null journal).
    fabric:
        The transport telemetry frames traverse -- pass an
        :class:`~repro.fabric.ImpairedFabric` to subject the telemetry
        plane to the same loss as the datapath.  Defaults to a private
        :class:`~repro.fabric.InlineFabric`.  The counter bank attaches
        at endpoint 0, the ring at endpoint 1.
    export_every:
        Export on every Nth scrape the exporter observes (default 4).
        Deltas merge across skipped scrapes, so nothing is lost -- the
        telemetry plane just runs at a coarser cadence than the local
        scraper, keeping its datapath overhead inside the
        ``bench-obs-fleet`` budget.  Call :meth:`flush` before reading
        back if the current window must be visible remotely.

    Call :meth:`attach` to ride a scraper, or :meth:`export` directly.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        journal=None,
        fabric: Optional["Fabric"] = None,
        export_every: int = 4,
    ) -> None:
        # Imported lazily: repro.obs re-exports this module at package
        # import time, and the store imports would cycle at module level.
        from repro import obs
        from repro.collector.counters import CounterStore
        from repro.fabric.fabric import InlineFabric
        from repro.primitives.append import AppendStore
        from repro.primitives.clients import AppendQueryClient, CounterQueryClient

        if registry is None:
            registry = obs.get_registry()
        if journal is None:
            journal = obs.get_journal()
        if export_every < 1:
            raise ValueError(f"export_every must be >= 1, got {export_every}")
        self.registry = registry
        self.journal = journal
        self.export_every = export_every
        self._scrapes_seen = 0
        #: The export plane's own metrics -- kept out of the exported
        #: registry so the telemetry stream does not observe itself.
        self.meta_registry = MetricsRegistry(enabled=True)
        previous_registry = obs.set_registry(self.meta_registry)
        previous_journal = obs.set_journal(NULL_JOURNAL)
        try:
            self.fabric = fabric if fabric is not None else InlineFabric()
            self.counter_store = CounterStore(
                cells_per_row=CELLS_PER_ROW,
                rows=ROWS,
                base_address=COUNTER_BANK_ADDRESS,
                fabric=self.fabric,
                endpoint_id=COUNTER_ENDPOINT,
            )
            self.ring = AppendStore(
                capacity=RING_CAPACITY,
                record_bytes=RECORD_BYTES,
                base_address=RING_ADDRESS,
                fabric=self.fabric,
                endpoint_id=RING_ENDPOINT,
            )
            self.writer = self.ring.register_writer(writer_id=0)
            #: One-sided read-back clients (RDMA READs, zero collector CPU).
            self.counter_client = CounterQueryClient(self.counter_store)
            self.ring_client = AppendQueryClient(self.ring)
        finally:
            obs.set_registry(previous_registry)
            obs.set_journal(previous_journal)
        self._baseline: Optional[MetricsSnapshot] = None
        self._journal_cursor = 0
        #: Cumulative per-key amounts exported (the exporter-side truth
        #: the reconciliation test compares the remote keyspace against).
        self.exported: Dict[TelemetryKey, int] = {}
        self.c_exports = self.meta_registry.counter(
            "selftel_exports", help="export rounds run"
        )
        self.c_keys = self.meta_registry.counter(
            "selftel_keys_exported",
            help="(node, family) keys carried across all export rounds",
        )
        self.c_events = self.meta_registry.counter(
            "selftel_events_exported",
            help="journal events appended to the telemetry ring",
        )

    def __repr__(self) -> str:
        return (
            f"SelfTelemetryExporter(exports={self.c_exports.value}, "
            f"keys={len(self.exported)}, "
            f"events={self.c_events.value})"
        )

    # ------------------------------------------------------------------
    # Export (the scraper-observer side)
    # ------------------------------------------------------------------

    def attach(self, scraper) -> "SelfTelemetryExporter":
        """Register on ``scraper``; every ``export_every``-th scrape exports."""
        scraper.add_observer(self._on_scrape)
        return self

    def _on_scrape(self, tick: int, snapshot: MetricsSnapshot) -> int:
        """Scraper observer: export at the configured cadence."""
        self._scrapes_seen += 1
        if self._scrapes_seen % self.export_every:
            return 0
        return self.export(tick, snapshot)

    def flush(self, tick: Optional[int] = None) -> int:
        """Export the current window now (fresh snapshot); returns frames.

        Use before a one-sided read-back when the most recent deltas and
        journal events must already be in the telemetry keyspace/ring.
        """
        if tick is None:
            tick = self.journal.tick
        return self.export(tick, self.registry.snapshot())

    def _deltas(self, snapshot: MetricsSnapshot) -> Dict[TelemetryKey, int]:
        """Per-(node, family) positive counter deltas since the last export."""
        window = (
            snapshot
            if self._baseline is None
            else snapshot.diff(self._baseline)
        )
        deltas: Dict[TelemetryKey, int] = {}
        for (name, labels), (kind, value) in window.samples.items():
            if kind != "counter":
                continue
            amount = int(value)
            if amount <= 0:
                continue
            key = (dict(labels).get("node", ""), name)
            deltas[key] = deltas.get(key, 0) + amount
        return deltas

    def export(self, tick: int, snapshot: MetricsSnapshot) -> int:
        """One export round; returns the number of frames offered.

        Counter deltas since the previous round go out as one batched
        Key-Increment pass (zero deltas cost nothing on the wire); journal
        events recorded since the previous round go out as one Append
        batch.  The first round exports the full counter values as the
        baseline.
        """
        offered = 0
        deltas = self._deltas(snapshot)
        if deltas:
            items = sorted(deltas.items())
            offered += self.counter_store.add_many(items)
            for key, amount in items:
                self.exported[key] = self.exported.get(key, 0) + amount
            self.c_keys.inc(len(items))
        events = self.journal.events_since(self._journal_cursor)
        if events:
            self.writer.append_many(
                [encode_event(event, RECORD_BYTES) for event in events]
            )
            self._journal_cursor = events[-1].seq + 1
            self.c_events.inc(len(events))
            offered += len(events)
        self._baseline = snapshot
        self.c_exports.inc()
        return offered

    # ------------------------------------------------------------------
    # One-sided read-back (the remote-operator side)
    # ------------------------------------------------------------------

    def read_counter(self, name: str, node: str = "") -> Optional[int]:
        """One family's exported total, read over the wire.

        A count-min estimate via one-sided READs: an upper bound under
        collisions, a lower bound under request-leg loss, ``None`` when
        every READ was lost.
        """
        return self.counter_client.estimate((node, name))

    def local_total(self, name: str, node: Optional[str] = None) -> int:
        """The exporter-side cumulative total for one family (the truth).

        Sums what :meth:`export` actually offered for the family --
        across nodes by default, one node's share with ``node`` -- which
        under loss can exceed what the remote keyspace retained.
        """
        return sum(
            amount
            for (key_node, key_name), amount in self.exported.items()
            if key_name == name and (node is None or key_node == node)
        )

    def follow_events(self) -> List[JournalEvent]:
        """New journal events since the last call, read over the wire.

        Rides the ring client's cursor tail-follow; slots whose READ was
        lost, or that decode as garbage (stale slot bytes under
        impairment), are skipped.  Returns decoded events, oldest first.
        """
        batch = self.ring_client.follow()
        if batch is None:
            return []
        events = []
        for _index, record in batch.records:
            event = decode_event(record)
            if event is not None:
                events.append(event)
        return events

    def reconcile(self, names: List[str]) -> Dict[str, dict]:
        """Local-vs-remote comparison for a list of counter families.

        Returns ``{name: {"local": int, "remote": int | None}}`` --
        the acceptance test's evidence that the one-sided keyspace and
        the in-process registry agree (exactly under a lossless fabric,
        within the loss bound under impairment).
        """
        out: Dict[str, dict] = {}
        nodes = {key_node for key_node, _name in self.exported}
        for name in names:
            remote = 0
            lost = False
            for node in sorted(nodes):
                if self.local_total(name, node) == 0:
                    continue
                estimate = self.read_counter(name, node)
                if estimate is None:
                    lost = True
                    continue
                remote += estimate
            out[name] = {
                "local": self.local_total(name),
                "remote": None if lost and remote == 0 else remote,
            }
        return out
