"""Fabric core: the transport protocol plus inline and buffered transports.

A fabric connects *senders* (switch models, query clients, counter
updaters) to *endpoints* (anything exposing the :class:`FabricPort`
surface: an :class:`~repro.rdma.nic.RdmaNic`, a
:class:`~repro.collector.collector.Collector`, ...).  Senders address
endpoints by integer ID -- in DART deployments the collector ID, so the
switch-side collector lookup table and the fabric agree on addressing.

Delivery semantics are deliberately narrow: a fabric moves opaque wire
bytes.  It never parses frames, so everything the RNIC validates (iCRC,
rkey, QP, PSN) still happens at the endpoint, exactly as on real hardware.

Observability: every fabric registers its frame accounting with the
process :class:`~repro.obs.MetricsRegistry` at construction
(:class:`FabricCounters` is a thin view over those registry counters), and
delivery records per-frame spans when a real tracer is installed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Protocol, runtime_checkable

from repro import obs
from repro.obs.metrics import DEPTH_BUCKETS, SIZE_BUCKETS, CounterView
from repro.rdma.frames import FrameBatch


@runtime_checkable
class FabricPort(Protocol):
    """What a fabric endpoint must implement: ingest frames, emit responses.

    A port may also offer ``ingest_batch(batch) -> int`` to take a whole
    :class:`~repro.rdma.frames.FrameBatch` in one call; ports without it
    receive a batch's rows through :meth:`receive_frame` in order.
    """

    def receive_frame(self, frame: bytes) -> bool:
        """Ingest one wire frame; returns whether it was executed."""
        ...

    def transmit(self) -> list:
        """Drain and return queued outbound responses (READ responses, ACKs).

        One entry per answered request, in execution order: ``bytes`` for
        a frame request, one :class:`~repro.rdma.frames.FrameBatch` (a row
        per response) for a READ batch.
        """
        ...


class FabricCounters(CounterView):
    """Frame accounting for one fabric (senders' side of the seam).

    A thin view over per-instance counters in the process metrics registry
    -- reads return live integers, so the pre-registry API (and the
    impairment property tests built on it) keeps working while exposition,
    snapshot/diff and fleet-wide totals come from the registry.

    The invariant the impairment tests enforce:
    ``frames_delivered == frames_executed + frames_rejected`` and, for the
    delivering fabric, ``frames_delivered`` equals the sum of the attached
    NICs' ``frames_received`` increments -- no frame is ever silently lost
    between a sender and the NIC counters.
    """

    KIND = "Fabric"
    FIELDS = (
        ("frames_offered", "c_offered", "fabric_frames_offered",
         "Frames handed to the fabric by senders."),
        ("frames_delivered", "c_delivered", "fabric_frames_delivered",
         "Frames handed to an endpoint port (after buffering/impairments)."),
        ("frames_executed", "c_executed", "fabric_frames_executed",
         "Delivered frames the endpoint executed (port returned True)."),
        ("frames_rejected", "c_rejected", "fabric_frames_rejected",
         "Delivered frames the endpoint dropped (port returned False)."),
        ("frames_dropped_loss", "c_dropped_loss", "fabric_frames_dropped_loss",
         "Frames dropped in flight by an impairment (never delivered)."),
        ("frames_duplicated", "c_duplicated", "fabric_frames_duplicated",
         "Extra deliveries injected by a duplication impairment."),
        ("frames_reordered", "c_reordered", "fabric_frames_reordered",
         "Frames delivered out of order by a reordering impairment."),
        ("flushes", "c_flushes", "fabric_flushes",
         "Explicit and threshold-triggered flushes performed."),
    )


class Fabric:
    """Base transport: endpoint registry plus the delivery protocol.

    Subclasses implement :meth:`send` (one frame) and :meth:`send_batch`
    (one columnar batch); the base class provides endpoint bookkeeping,
    the response-path :meth:`poll` that the one-sided READ flow uses, and the
    shared observability plumbing (registry counters, frame-size
    histogram, tracer spans).
    """

    def __init__(self) -> None:
        registry = obs.get_registry()
        self._registry = registry
        self._tracer = obs.get_tracer()
        self._t_deliver = registry.stage("fabric.deliver")
        self.counters = FabricCounters(registry, kind=type(self).__name__)
        self._h_frame_bytes = registry.histogram(
            "fabric_frame_bytes",
            SIZE_BUCKETS,
            help="wire frame sizes offered to the fabric",
        )
        self._ports: "OrderedDict[int, FabricPort]" = OrderedDict()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(endpoints={len(self._ports)})"

    # ------------------------------------------------------------------
    # Endpoint registry (control plane)
    # ------------------------------------------------------------------

    def attach(self, endpoint_id: int, port: FabricPort) -> None:
        """Register ``port`` as the endpoint reachable at ``endpoint_id``."""
        if endpoint_id in self._ports:
            raise ValueError(f"endpoint {endpoint_id} already attached")
        self._ports[endpoint_id] = port

    def detach(self, endpoint_id: int) -> FabricPort:
        """Remove and return the port at ``endpoint_id`` (KeyError if absent).

        Frames already queued toward the endpoint are *not* discarded;
        they deliver to whatever port is bound when the queue drains
        (in-flight frames outlive control-plane changes, as on real wire).
        """
        try:
            return self._ports.pop(endpoint_id)
        except KeyError:
            raise KeyError(
                f"no fabric endpoint {endpoint_id} to detach; attached: "
                f"{sorted(self._ports)}"
            ) from None

    def rebind(self, endpoint_id: int, port: FabricPort) -> Optional[FabricPort]:
        """Bind ``endpoint_id`` to ``port``, replacing any existing binding.

        This is the failover primitive: the fleet controller repoints a
        keyspace role at a standby collector's port after re-provisioning
        the switches.  Returns the previously bound port (None if the ID
        was unbound).  Unlike :meth:`attach` it never raises on an
        existing binding.
        """
        previous = self._ports.get(endpoint_id)
        self._ports[endpoint_id] = port
        return previous

    def port(self, endpoint_id: int) -> FabricPort:
        """The port attached at ``endpoint_id`` (KeyError if absent)."""
        try:
            return self._ports[endpoint_id]
        except KeyError:
            raise KeyError(
                f"no fabric endpoint {endpoint_id}; attached: "
                f"{sorted(self._ports)}"
            ) from None

    def endpoint_ids(self) -> List[int]:
        """All attached endpoint IDs, in attach order."""
        return list(self._ports)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def send(self, endpoint_id: int, frame: bytes) -> Optional[bool]:
        """Offer one frame for delivery to ``endpoint_id``.

        Returns True/False for frames delivered synchronously (whether the
        endpoint executed them) and None when delivery is deferred (queued
        or held by an impairment).
        """
        raise NotImplementedError

    def send_many(self, endpoint_id: int, frames) -> None:
        """Looped :meth:`send`; kept only as a `perf/` trace boundary."""
        for frame in frames:
            self.send(endpoint_id, frame)

    def send_batch(self, batch: FrameBatch) -> int:
        """Offer a whole columnar frame batch; takes ownership of ``batch``.

        The batch seam of the columnar datapath: one call moves every
        frame, and the fabric releases the batch's pooled buffer once it
        no longer needs the bytes.  Returns the rows whose :meth:`send`
        result would not be ``False``: executed now, or still in flight
        (queued, or held) and not lost.

        Every transport implements it (Inline/Buffered/Impaired with
        vectorised paths whose results match per-frame :meth:`send` in
        emission order).  Impaired's count is exact unless PSNs are ignored
        and some row's own delivery is rejected: then the second copies and
        released held rows that executed can lift it above looped send's.
        """
        raise NotImplementedError

    def flush(self) -> int:
        """Deliver everything in flight; returns frames delivered now."""
        return 0

    def pending(self) -> int:
        """Frames accepted but not yet delivered to any endpoint."""
        return 0

    def poll(self, endpoint_id: int) -> list:
        """Drain ``endpoint_id``'s outbound responses (flushing it first).

        This is the response leg of one-sided READs: flush anything queued
        toward the endpoint so requests precede the poll, then collect what
        its NIC transmitted -- the port's :meth:`FabricPort.transmit` list,
        unchanged.
        """
        self._flush_endpoint(endpoint_id)
        return self.port(endpoint_id).transmit()

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def _flush_endpoint(self, endpoint_id: int) -> int:
        """Deliver frames in flight toward one endpoint (default: none)."""
        return 0

    def _deliver(self, endpoint_id: int, frame: bytes) -> bool:
        """Hand one frame to the endpoint port, keeping the counters exact."""
        try:
            port = self._ports[endpoint_id]
        except KeyError:
            port = self.port(endpoint_id)  # raises, naming the attached IDs
        timer = self._t_deliver
        profiled = timer.profiler is not None
        if profiled:
            started = timer.start()
        executed = port.receive_frame(frame)
        if profiled:
            timer.stop(started)
        counters = self.counters
        counters.c_delivered.inc()
        if executed:
            counters.c_executed.inc()
        else:
            counters.c_rejected.inc()
        tracer = self._tracer
        if tracer.enabled:
            # Delivery is the end of the frame's journey: record the
            # terminal span and release the binding (the lifecycle fix --
            # bindings no longer leak until reset).  A rejected frame is
            # an anomaly, so its trace is tail-retained.
            tracer.finish_frame(
                frame,
                "fabric.deliver",
                f"{type(self).__name__}:"
                + ("executed" if executed else "rejected"),
                status="ok" if executed else "drop",
            )
        return executed

    def _deliver_batch(self, endpoint_id: int, batch: FrameBatch) -> int:
        """Hand a single-endpoint frame batch to its port, counters exact.

        Borrows ``batch`` (the caller keeps ownership).  Ports exposing
        ``ingest_batch`` get the whole matrix in one call; others receive
        row bytes in order.  A bound batch records one terminal span; an
        unbound one (untraced, or head-sampled out) records nothing.
        """
        count = batch.count
        if count == 0:
            return 0
        tracer = self._tracer
        port = self.port(endpoint_id)
        timer = self._t_deliver
        profiled = timer.profiler is not None
        if profiled:
            started = timer.start()
        ingest_batch = getattr(port, "ingest_batch", None)
        if ingest_batch is not None:
            executed = ingest_batch(batch)
        else:
            frames = batch.frames
            receive_frame = port.receive_frame
            executed = 0
            for index in range(count):
                if receive_frame(frames[index].tobytes()):
                    executed += 1
        if profiled:
            timer.stop(started)
        if tracer.enabled and batch.trace_ctx is not None:
            tracer.finish_batch(
                batch,
                "fabric.deliver",
                f"{type(self).__name__}:rows={count} executed={executed}",
                status="ok" if executed == count else "drop",
            )
        counters = self.counters
        counters.c_delivered.inc(count)
        counters.c_executed.inc(executed)
        counters.c_rejected.inc(count - executed)
        return executed


class InlineFabric(Fabric):
    """Synchronous direct delivery -- the historical behaviour, as a seam.

    Every :meth:`send` hands the frame to the endpoint immediately and
    returns whether the NIC executed it.  The equivalence tests prove this
    transport leaves collector memory bit-identical to the direct calls it
    replaced.
    """

    def send(self, endpoint_id: int, frame: bytes) -> bool:
        """Deliver one frame now; returns whether it was executed."""
        self.counters.c_offered.inc()
        self._h_frame_bytes.observe(len(frame))
        return self._deliver(endpoint_id, frame)

    def send_batch(self, batch: FrameBatch) -> int:
        """Deliver a columnar batch now, endpoint by endpoint.

        Frames for the same endpoint arrive in emission order (the PSN
        contract) with zero copies: the whole batch, or each endpoint's
        rows as a view the port borrows when they are one run (a READ
        pass's matrix).  Only interleaved rows are copied out.
        """
        count = batch.count
        self.counters.c_offered.inc(count)
        if self._h_frame_bytes.enabled and count:
            self._h_frame_bytes.observe_many(batch.width, count)
        try:
            endpoint = batch.single_endpoint()
            if endpoint is not None:
                return self._deliver_batch(endpoint, batch)
            executed = 0
            for endpoint_id, rows in batch.groups():
                start, stop = int(rows[0]), int(rows[-1]) + 1
                if stop - start == len(rows):  # a view, no lease: the port only borrows it
                    sub = FrameBatch(batch.frames[start:stop], batch.endpoint_ids[start:stop])
                    sub.trace_ctx = batch.trace_ctx
                else:
                    sub = batch.select(rows)
                try:
                    executed += self._deliver_batch(endpoint_id, sub)
                finally:
                    sub.release()
            return executed
        finally:
            batch.release()


class BufferedFabric(Fabric):
    """Per-link FIFO queues with threshold-triggered or explicit flushes.

    Frames accumulate in one queue per endpoint; a queue drains to the
    endpoint when it reaches ``flush_threshold`` frames (or only on
    explicit :meth:`flush` when the threshold is None).  Order
    is preserved per link, so per-QP PSN sequences arrive intact and the
    flushed result is byte-identical to inline delivery -- the fabric
    equivalence suite asserts exactly that.

    Queue observability: each enqueue raises the ``fabric_queue_depth_hwm``
    high-water-mark gauge, and every flush reports the depth it drained via
    the ``fabric_queue_depth`` gauge and the ``fabric_flush_frames``
    histogram, so threshold tuning is visible without instrumenting tests.

    Parameters
    ----------
    flush_threshold:
        Queue depth that triggers an automatic per-link flush; None means
        frames wait for an explicit :meth:`flush` / :meth:`poll`.
    """

    def __init__(self, flush_threshold: Optional[int] = 64) -> None:
        if flush_threshold is not None and flush_threshold < 1:
            raise ValueError(
                f"flush_threshold must be >= 1 or None, got {flush_threshold}"
            )
        super().__init__()
        self.flush_threshold = flush_threshold
        # Queue entries are raw frame bytes or columnar FrameBatch handles;
        # _depths tracks queued *frames* per link (a batch counts its rows).
        self._queues: Dict[int, Deque[object]] = {}
        self._depths: Dict[int, int] = {}
        registry = self._registry
        labels = registry.instance_labels("BufferedFabricQueue")
        self._g_depth = registry.gauge(
            "fabric_queue_depth",
            labels=labels,
            help="queue depth observed at flush time",
        )
        self._g_depth_hwm = registry.gauge(
            "fabric_queue_depth_hwm",
            labels=labels,
            help="deepest per-link queue ever observed",
        )
        self._h_flush_frames = registry.histogram(
            "fabric_flush_frames",
            DEPTH_BUCKETS,
            help="frames drained per flush",
        )
        self._t_flush = registry.stage("fabric_flush")

    def __repr__(self) -> str:
        return (
            f"BufferedFabric(endpoints={len(self._ports)}, "
            f"pending={self.pending()}, threshold={self.flush_threshold})"
        )

    @property
    def queue_depth_high_water(self) -> int:
        """The deepest any per-link queue has ever been (registry-backed)."""
        return int(self._g_depth_hwm.value)

    @property
    def last_flush_depth(self) -> int:
        """Queue depth reported by the most recent per-link flush."""
        return int(self._g_depth.value)

    def send(self, endpoint_id: int, frame: bytes) -> Optional[bool]:
        """Queue one frame; delivery happens at the next (auto-)flush."""
        if endpoint_id not in self._ports:
            self.port(endpoint_id)  # fail fast on unknown endpoints
        self.counters.c_offered.inc()
        self._h_frame_bytes.observe(len(frame))
        self._queues.setdefault(endpoint_id, deque()).append(frame)
        self._note_enqueued(endpoint_id, 1)
        return None

    def send_batch(self, batch: FrameBatch) -> int:
        """Queue a columnar batch; frames deliver at the next (auto-)flush.

        The batch stays columnar in the queue -- a retained handle for the
        single-endpoint case, pooled per-endpoint sub-batches otherwise --
        so a later flush still reaches the endpoint's columnar ingest.
        Returns the rows queued: every one is in flight, as :meth:`send`'s
        None says of a frame.
        """
        count = batch.count
        self.counters.c_offered.inc(count)
        if self._h_frame_bytes.enabled and count:
            self._h_frame_bytes.observe_many(batch.width, count)
        try:
            endpoint = batch.single_endpoint()
            if endpoint is not None:
                self.port(endpoint)  # fail fast before retaining
                self._queues.setdefault(endpoint, deque()).append(
                    batch.retain()
                )
                self._note_enqueued(endpoint, count)
                return count
            groups = list(batch.groups())
            for endpoint_id, _rows in groups:
                self.port(endpoint_id)  # fail fast before copying anything
            for endpoint_id, rows in groups:
                sub = batch.select(rows)
                self._queues.setdefault(endpoint_id, deque()).append(sub)
                self._note_enqueued(endpoint_id, sub.count)
            return count
        finally:
            batch.release()

    def _note_enqueued(self, endpoint_id: int, count: int) -> None:
        """Account ``count`` newly queued frames; auto-flush on threshold."""
        depth = self._depths.get(endpoint_id, 0) + count
        self._depths[endpoint_id] = depth
        self._g_depth_hwm.set_max(depth)
        if self.flush_threshold is not None and depth >= self.flush_threshold:
            self.counters.c_flushes.inc()
            self._flush_endpoint(endpoint_id)

    def flush(self) -> int:
        """Drain every link in attach order; returns frames delivered."""
        self.counters.c_flushes.inc()
        return sum(
            self._flush_endpoint(endpoint_id)
            for endpoint_id in list(self._queues)
        )

    def pending(self) -> int:
        """Frames queued across all links."""
        return sum(self._depths.values())

    def pending_for(self, endpoint_id: int) -> int:
        """Frames queued toward one endpoint."""
        return self._depths.get(endpoint_id, 0)

    def _flush_endpoint(self, endpoint_id: int) -> int:
        """Drain one link, entry by entry, in queue order.

        Queued entries are raw frame bytes or columnar batches: each frame
        drains through ``_deliver`` and each batch through
        ``_deliver_batch``, so per-link frame order (the PSN contract) is
        preserved across mixed traffic.  Reports the drained depth on the
        ``fabric_queue_depth`` gauge and the ``fabric_flush_frames``
        histogram before delivering.
        """
        queue = self._queues.get(endpoint_id)
        if not queue:
            return 0
        entries = list(queue)
        queue.clear()
        depth = self._depths.pop(endpoint_id, 0)
        self._g_depth.set(depth)
        self._h_flush_frames.observe(depth)
        started = self._t_flush.start()
        for entry in entries:
            if isinstance(entry, FrameBatch):
                try:
                    self._deliver_batch(endpoint_id, entry)
                finally:
                    entry.release()
            else:
                self._deliver(endpoint_id, entry)
        self._t_flush.stop(started)
        return depth
