"""DartStore: the high-level key-value facade over a collector fleet.

This is the public API a downstream user adopts: construct a store from a
:class:`~repro.core.config.DartConfig`, ``put`` telemetry reports, ``get``
them back.  Internally it wires a :class:`~repro.core.reporter.DartReporter`
(the switch-side logic) to a :class:`~repro.collector.collector.CollectorCluster`
and a :class:`~repro.core.client.DartQueryClient` (the operator-side logic).

Writes use the in-process path (direct slot writes) by default; pass
``packet_level=True`` to route every write through a real switch model,
RoCEv2 wire encoding and the NIC -- byte-identical results.  Either way
the call shape picks the granularity: ``put`` is the scalar per-event
path, ``put_many`` the columnar batch path (one resolved
:class:`~repro.core.batch.ReportBatch` per call).  Per report, a
packet-level batch costs about 1.5x an in-process one
(``benchmarks/BENCH_fabric.json``) and packet-level ``put`` about 15x a
packet-level batch (``perf/``'s ``ingest_perframe`` against ``ingest_columnar``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.batch import ReportBatch
from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.core.policies import QueryResult, ReturnPolicy
from repro.core.reporter import DartReporter
from repro.collector.collector import CollectorCluster
from repro.fabric.fabric import Fabric, InlineFabric
from repro.hashing.hash_family import Key


class DartStore:
    """A queryable telemetry store with switch-side write semantics.

    Parameters
    ----------
    config:
        Deployment configuration (redundancy, checksum width, memory).
    policy:
        Default query return policy (paper default: plurality vote).
    packet_level:
        Route writes through the P4 switch model and RoCEv2 wire format
        instead of direct slot writes.  The store's one switch (ID 0) is
        brought up like any fleet switch, by
        :meth:`~repro.switch.control_plane.SwitchControlPlane.connect_switch`:
        it reaches each collector through its own responder QP.
    fabric:
        The transport report frames traverse in packet-level mode; defaults
        to an :class:`~repro.fabric.InlineFabric` (synchronous delivery).
        Pass a :class:`~repro.fabric.BufferedFabric` for batched delivery
        (remember to :meth:`~repro.fabric.Fabric.flush` before querying) or
        an :class:`~repro.fabric.ImpairedFabric` for loss scenarios.

    Examples
    --------
    >>> from repro.core.config import DartConfig
    >>> store = DartStore(DartConfig(slots_per_collector=1024))
    >>> store.put(("10.0.0.1", "10.0.0.2", 5000, 80, 6), b"path-trace")
    >>> store.get(("10.0.0.1", "10.0.0.2", 5000, 80, 6)).value[:10]
    b'path-trace'
    """

    def __init__(
        self,
        config: DartConfig,
        policy: ReturnPolicy = ReturnPolicy.PLURALITY,
        packet_level: bool = False,
        fabric: Optional[Fabric] = None,
    ) -> None:
        if fabric is not None and not packet_level:
            raise ValueError(
                "a fabric only carries RoCEv2 frames; pass packet_level=True"
            )
        self.config = config
        self.cluster = CollectorCluster(config)
        self.reporter = DartReporter(config)
        self.client = DartQueryClient(
            config, reader=self.cluster.read_slot, policy=policy
        )
        self._switch = None
        self.fabric: Optional[Fabric] = None
        if packet_level:
            # Imported lazily: the switch model depends on core, and the
            # store is usable without the packet path.
            from repro.switch.dart_switch import DartSwitch
            from repro.switch.control_plane import SwitchControlPlane

            self.fabric = fabric if fabric is not None else InlineFabric()
            self.cluster.attach_to(self.fabric)
            self._switch = DartSwitch(config, switch_id=0, fabric=self.fabric)
            SwitchControlPlane(config).connect_switch(self._switch, self.cluster)
        registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        labels = registry.instance_labels("DartStore")
        #: Telemetry reports stored through this facade.
        self.c_puts = registry.counter("store_puts", labels=labels)
        #: Key queries served through this facade.
        self.c_gets = registry.counter("store_gets", labels=labels)
        self._t_put_many = registry.stage("store.put_many")

    @property
    def puts(self) -> int:
        """Telemetry reports stored through this facade (registry-backed)."""
        return self.c_puts.value

    @property
    def gets(self) -> int:
        """Key queries served through this facade (registry-backed)."""
        return self.c_gets.value

    def __repr__(self) -> str:
        mode = "packet-level" if self._switch is not None else "in-process"
        return f"DartStore(config={self.config!r}, mode={mode})"

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, key: Key, value: bytes) -> int:
        """Store a telemetry report; returns the number of slot copies written.

        In packet-level mode this is
        :meth:`~repro.switch.dart_switch.DartSwitch.report_into`'s count:
        the frames the fabric did not report lost -- executed now, or in
        flight (queued or held) and executing at a later flush.  Later
        ``put``s of colliding keys may overwrite copies -- by design.
        """
        self.c_puts.inc()
        if self._switch is not None:
            return self._switch.report_into(key, value)
        writes = self.reporter.writes_for(key, value)
        for write in writes:
            self.cluster[write.collector_id].write_slot(
                write.slot_index, write.payload
            )
        return len(writes)

    def put_many(self, items: Iterable[Tuple[Key, bytes]]) -> int:
        """Batched puts: the columnar hot path for report streams.

        The whole batch resolves into one
        :class:`~repro.core.batch.ReportBatch` (one key fold per report).
        Packet-level mode encodes it as one frame matrix, emits it through
        ``send_batch`` and flushes once; in-process mode scatters it into
        each collector's region with one columnar write.  Store state and
        write/overwrite counters equal looped :meth:`put` (tested), and
        so does the return: the slot copies written, which in
        packet-level mode counts, as :meth:`put` does, the frames the
        fabric did not report lost.
        """
        started = self._t_put_many.start()
        items = list(items)
        self.c_puts.inc(len(items))
        if self._switch is not None:
            written = self._switch.report_batch_into(items)
            self.fabric.flush()
        else:
            written = self._put_columnar(items)
        self._t_put_many.stop(started)
        return written

    def _put_columnar(self, items: List[Tuple[Key, bytes]]) -> int:
        """In-process batch write: one columnar scatter per collector."""
        reporter = self.reporter
        batch = ReportBatch.from_items(reporter.addressing, items)
        count = batch.count
        if count == 0:
            return 0
        redundancy = reporter.redundancy
        # Rows are report-major (copies 0..N-1 of report 0, then report
        # 1, ...): the order looped put writes them, so last-wins and
        # overwrite accounting on repeated or colliding slots agree.
        collectors = np.repeat(batch.collector_ids, redundancy)
        offsets = batch.slot_indexes[:redundancy].T.reshape(-1).astype(
            np.int64
        ) * self.config.slot_bytes
        for role in np.unique(batch.collector_ids).tolist():
            rows = np.flatnonzero(collectors == role)
            self.cluster[role].region.write_offset_columnar(
                offsets[rows], batch.payloads[rows // redundancy]
            )
        reporter.c_reports.inc(count)
        reporter.c_writes.inc(count * redundancy)
        tracer = self._tracer
        if tracer.enabled:
            with tracer.joined("put_many", key=f"rows={count}") as trace_id:
                tracer.span(
                    trace_id, "store.put_many", f"rows={count} copies={redundancy}"
                )
        return count * redundancy

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, key: Key, policy: Optional[ReturnPolicy] = None) -> QueryResult:
        """Query a key; see :class:`~repro.core.policies.QueryResult`."""
        self.c_gets.inc()
        return self.client.query(key, policy=policy)

    def get_value(self, key: Key) -> Optional[bytes]:
        """The queried value, or ``None`` on an empty return."""
        return self.get(key).value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Total registered collector memory behind this store."""
        return self.cluster.total_memory_bytes()

    def load_factor(self, live_keys: Optional[int] = None) -> float:
        """α for a given (or the observed) number of distinct keys.

        Without an argument this uses the number of ``put`` calls, which
        overestimates α when keys repeat -- callers tracking distinct keys
        should pass the true count.
        """
        if live_keys is None:
            live_keys = self.puts
        return self.config.load_factor(live_keys)
