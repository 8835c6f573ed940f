"""Causal, sampled tracing: follow one operation across planes as a span tree.

A trace is born where an operation is born -- a
:class:`~repro.switch.dart_switch.DartSwitch` report, a primitive
translator's Append, a query client's read -- and accumulates *spans* as
its frames and batches cross the layers: switch craft, fabric
offer/impairment/delivery, NIC ingest, memory-region write, store/query
resolution.  Unlike the flat per-frame tracer this module grew from,
spans now carry causal structure: every span has a ``span_id`` and a
``parent_id``, so a batch's tail-reservation FETCH_ADD, its columnar
WRITEs, any retries, and the one-sided query READs that follow all hang
off one root as a tree.

Causality crosses the frame seam through :class:`SpanContext`: binding a
frame (or a whole :class:`~repro.rdma.frames.FrameBatch`) to a trace
attaches a context ``(trace_id, span_id)``; each span recorded against
the frame becomes the context's new head, so a frame's journey is a
root-to-leaf chain and duplicated/reordered copies fork exactly where
the impairment happened.  Because the fabric moves opaque wire bytes,
frames are still associated by content: layers that only see ``bytes``
call :meth:`Tracer.frame_span` / :meth:`Tracer.finish_frame` and the
tracer looks the context up.  Duplicated frames (same bytes)
intentionally land on the same trace -- a duplicate *is* the same report
copy on the wire.

Sampling is two-sided, the way production tracing systems do it:

- **Head sampling** is a deterministic pure function of the trace id
  (``sample_rate``): unsampled traces allocate an id and nothing else
  (``make bench-obs-trace`` holds the overhead bound at 1% sampling).
- **Tail retention** force-keeps interesting traces regardless of later
  ring eviction: any span recorded with a non-``ok`` status (a dropped
  frame, a reservation retry, a decode error) tags the trace, and a
  firing SLO rule keeps every trace in flight via :meth:`Tracer.keep_live`.
  Kept traces survive in a bounded side store (``max_kept``) after the
  live ring wraps.

Sealing closes the loop with metrics: when a trace has ended
(:meth:`Tracer.end`) and its last frame/batch binding is released, the
tracer observes the trace's wall-clock duration into the
``trace_seconds`` histogram *with the trace id as the bucket exemplar*
-- a p99 bucket links straight to a kept trace that
:class:`~repro.obs.trace_analysis.TraceAnalyzer` can explain.

Ordering uses a process-wide logical clock (monotonic span sequence
numbers), so span order is deterministic and survives impairment
reordering tests without wall-clock flakiness; wall-clock timestamps ride
along for waterfall/critical-path analysis only.

The tracer watches; it never steers.  Span granularity follows the
call shape and nothing else: a frame entry (``put``, ``report``,
``send``, ``receive_frame``, ``read``) records per-frame spans, a batch
entry (``put_many``, ``send_batch``, ``ingest_batch``, ...) runs its
batch body whatever tracer is installed and records one aggregate span
per layer when its batch is bound (:meth:`Tracer.bind_batch`) -- an
unbound or head-sampled-out batch records nothing and costs nothing.

Tracing is opt-in: the process default is :data:`NULL_TRACER`, whose
methods are no-ops, so the report hot path pays one guarded no-op call per
layer when tracing is off.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import LATENCY_BUCKETS

#: Knuth multiplicative hash constant for the head-sampling decision.
_SAMPLE_HASH = 2654435761
_SAMPLE_SPACE = float(1 << 32)


@dataclass(frozen=True)
class Span:
    """One event on a trace: logical timestamp, stage, causal identity.

    ``seq`` is the process-wide logical clock (deterministic ordering);
    ``span_id`` / ``parent_id`` carry the tree structure (``parent_id``
    0 marks the root); ``t`` is the wall-clock ``perf_counter`` reading
    for waterfall/critical-path analysis; ``status`` is ``"ok"`` for
    normal progress and e.g. ``"drop"`` / ``"retry"`` / ``"error"`` for
    anomalies (non-ok statuses tail-retain the whole trace).
    """

    seq: int
    stage: str
    detail: str = ""
    span_id: int = 0
    parent_id: int = 0
    status: str = "ok"
    t: float = 0.0

    def __str__(self) -> str:
        text = f"[{self.seq:06d}] {self.stage}" + (
            f" ({self.detail})" if self.detail else ""
        )
        if self.status != "ok":
            text += f" !{self.status}"
        return text


@dataclass
class SpanContext:
    """The causal token carried across the frame-binding seam.

    ``trace_id`` names the trace; ``span_id`` is the current chain head
    -- the parent the *next* span recorded through this context will
    attach to.  Frame and batch bindings each hold one; recording a span
    through a binding advances its head, so a frame's journey reads as a
    root-to-leaf path and a duplicate forks from the hop where it was
    duplicated.
    """

    trace_id: int
    span_id: int = 0
    #: Set once a terminal span released this context's hold.  Batch
    #: handles from ``retain()``/``select()`` share one context, so the
    #: flag makes :meth:`Tracer.finish_batch` first-finish-wins.
    finished: bool = False

    def fork(self) -> "SpanContext":
        """An independent context at the same position (duplicate frames)."""
        return SpanContext(self.trace_id, self.span_id)


@dataclass
class TraceRecord:
    """Everything recorded for one trace: identity plus the span tree."""

    trace_id: int
    kind: str
    key: str = ""
    spans: List[Span] = field(default_factory=list)
    #: Frames bound to this trace (kept so eviction can unbind them).
    frames: List[bytes] = field(default_factory=list)
    #: Worst span status seen ("ok" until an anomaly span lands).
    status: str = "ok"
    #: Why this trace is tail-retained (empty = not retained).
    keep_reasons: List[str] = field(default_factory=list)
    #: Set by :meth:`Tracer.end`: no further bindings are coming.
    ended: bool = False
    #: Set once ended with zero live bindings; duration was observed.
    sealed: bool = False
    #: Live frame/batch bindings (internal refcount for sealing).
    holds: int = 0
    #: span_id of the first span (0 until one is recorded).
    root_span_id: int = 0
    #: span_id of the most recently recorded span (default bind parent).
    last_span_id: int = 0

    @property
    def stages(self) -> Tuple[str, ...]:
        """The stage names in span order (test/dashboard convenience)."""
        return tuple(span.stage for span in self.spans)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spanned by the recorded spans (0 if < 2)."""
        if len(self.spans) < 2:
            return 0.0
        times = [span.t for span in self.spans]
        return max(times) - min(times)

    def span_by_id(self, span_id: int) -> Optional[Span]:
        """The span with ``span_id`` (None if absent)."""
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Depth-first ``(span, depth)`` from the root, children by seq.

        Spans whose parent is unknown (never for tracer-recorded spans)
        surface as extra roots so nothing is silently hidden.
        """
        known = {span.span_id for span in self.spans}
        by_parent: Dict[int, List[Span]] = {}
        for span in self.spans:
            parent = span.parent_id if span.parent_id in known else 0
            by_parent.setdefault(parent, []).append(span)
        stack = [(span, 0) for span in reversed(by_parent.get(0, []))]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(by_parent.get(span.span_id, [])):
                stack.append((child, depth + 1))

    def render(self) -> str:
        """Multi-line human rendering of the span tree."""
        head = f"trace {self.trace_id} kind={self.kind}"
        if self.key:
            head += f" key={self.key}"
        if self.status != "ok":
            head += f" status={self.status}"
        if self.keep_reasons:
            head += f" kept[{','.join(self.keep_reasons)}]"
        lines = [head]
        for span, depth in self.walk():
            lines.append("  " * (depth + 1) + str(span))
        return "\n".join(lines)

    def to_row(self) -> Dict[str, object]:
        """JSON-friendly summary (postmortem bundles, CLI)."""
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "key": self.key,
            "status": self.status,
            "keep_reasons": list(self.keep_reasons),
            "sealed": self.sealed,
            "duration_seconds": self.duration,
            "spans": [
                {
                    "seq": span.seq,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "stage": span.stage,
                    "detail": span.detail,
                    "status": span.status,
                    "t": span.t,
                }
                for span in self.spans
            ],
        }


#: Deterministic marker returned by :meth:`Tracer.trace` for ids that were
#: assigned but have since been evicted from the ring (or dropped by a
#: reset).  A single shared record -- callers can test identity -- whose
#: ``kind`` is ``"evicted"`` so renders stay meaningful; never KeyError,
#: never confusable with "this id was never issued" (which returns None).
EVICTED_TRACE = TraceRecord(trace_id=-1, kind="evicted")

#: Deterministic marker for ids the head sampler declined: the id was
#: issued (callers hold it) but no spans were ever recorded.  Distinct
#: from :data:`EVICTED_TRACE` -- an unsampled trace never existed, an
#: evicted one did.
UNSAMPLED_TRACE = TraceRecord(trace_id=-2, kind="unsampled")


class Tracer:
    """Assigns trace ids and records span trees keyed by id, frame or batch.

    Parameters
    ----------
    max_traces:
        Live-ring capacity: beginning a trace beyond this evicts the
        oldest trace (and unbinds its frames), bounding memory for long
        runs.  Evicted ids remain *queryable*: :meth:`trace` returns the
        shared :data:`EVICTED_TRACE` marker for them, deterministically,
        however far the ring has wrapped.
    sample_rate:
        Head-sampling probability in [0, 1].  The decision is a pure
        hash of the trace id, so it is deterministic, recomputable, and
        identical across processes for the same id.  Unsampled traces
        cost one id allocation; every other tracer method is a cheap
        no-op for them.
    max_kept:
        Capacity of the tail-retention side store.  Traces touching an
        anomaly (non-ok span status, explicit :meth:`keep`, a firing SLO
        via :meth:`keep_live`) survive here after the live ring evicts
        them, oldest-kept evicted first.
    """

    enabled = True

    def __init__(
        self,
        max_traces: int = 4096,
        sample_rate: float = 1.0,
        max_kept: int = 256,
    ) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self.max_traces = max_traces
        self.sample_rate = sample_rate
        self.max_kept = max_kept
        self._traces: "OrderedDict[int, TraceRecord]" = OrderedDict()
        self._kept: "OrderedDict[int, TraceRecord]" = OrderedDict()
        self._frames: Dict[bytes, SpanContext] = {}
        self._live_batches = 0
        self._next_id = 1
        self._next_span_id = 0
        self._clock = 0
        self.traces_begun = 0
        self.traces_evicted = 0
        self.traces_sampled_out = 0
        self.traces_sealed = 0
        self.spans_recorded = 0
        #: Trace id spans/journal events default to (:meth:`activate`).
        self.active_trace_id: Optional[int] = None
        # Imported lazily: repro.obs re-exports this module at package
        # import, so the accessor only exists after that import finishes.
        from repro import obs

        registry = obs.get_registry()
        self._g_bindings = registry.gauge(
            "tracer_bindings_live",
            help="frame/batch bindings currently held by the tracer",
        )
        self._h_trace_seconds = registry.histogram(
            "trace_seconds",
            LATENCY_BUCKETS,
            help="wall-clock seconds per sealed trace (exemplars carry trace ids)",
        )

    def __repr__(self) -> str:
        return (
            f"Tracer(live={len(self._traces)}, begun={self.traces_begun}, "
            f"spans={self.spans_recorded}, kept={len(self._kept)}, "
            f"sample_rate={self.sample_rate})"
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sampled(self, trace_id: int) -> bool:
        """The head-sampling decision for ``trace_id`` (pure, deterministic)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return (
            ((trace_id * _SAMPLE_HASH) & 0xFFFFFFFF) / _SAMPLE_SPACE
            < self.sample_rate
        )

    # ------------------------------------------------------------------
    # Trace lifecycle
    # ------------------------------------------------------------------

    def begin(self, kind: str, key: str = "") -> int:
        """Start a trace (at report/query creation); returns its id.

        Head-sampled out ids are still returned (and recognisable later
        via the :data:`UNSAMPLED_TRACE` marker), but allocate no record:
        every subsequent call with the id is a near-free no-op.
        """
        trace_id = self._next_id
        self._next_id += 1
        self.traces_begun += 1
        if not self.sampled(trace_id):
            self.traces_sampled_out += 1
            return trace_id
        self._traces[trace_id] = TraceRecord(
            trace_id=trace_id, kind=kind, key=key
        )
        if len(self._traces) > self.max_traces:
            _evicted_id, evicted = self._traces.popitem(last=False)
            self.traces_evicted += 1
            for frame in evicted.frames:
                context = self._frames.get(frame)
                if context is not None and context.trace_id == evicted.trace_id:
                    del self._frames[frame]
            self._update_bindings_gauge()
            if evicted.keep_reasons:
                self._keep_record(evicted)
        return trace_id

    def end(self, trace_id: int) -> None:
        """Declare the trace complete: no further bindings are coming.

        The trace seals (duration observed into ``trace_seconds``, kept
        traces moved to the retention store) as soon as its last live
        frame/batch binding is released -- immediately, if none are.
        """
        record = self._traces.get(trace_id)
        if record is None:
            return
        record.ended = True
        self._maybe_seal(record)

    @contextmanager
    def activate(self, trace_id: int):
        """Make ``trace_id`` the ambient trace for the ``with`` block.

        Layers that join whatever operation is in flight -- primitive
        translators, query clients, the flight-recorder journal -- read
        :attr:`active_trace_id` instead of beginning their own trace, so
        one ``activate`` stitches data-plane and control-plane spans
        into a single tree.
        """
        previous = self.active_trace_id
        self.active_trace_id = trace_id
        try:
            yield trace_id
        finally:
            self.active_trace_id = previous

    @contextmanager
    def joined(self, kind: str, key: str = ""):
        """Join the operation in flight, or run the block as its own trace.

        Yields the ambient trace id when one is active; otherwise begins
        a ``kind`` trace, keeps it ambient for the block and ends it on
        exit.  Every layer that can be either a step of a larger
        operation or an operation of its own enters its spans this way.
        """
        if self.active_trace_id is not None:
            yield self.active_trace_id
            return
        trace_id = self.begin(kind, key)
        try:
            with self.activate(trace_id):
                yield trace_id
        finally:
            self.end(trace_id)

    # ------------------------------------------------------------------
    # Frame bindings
    # ------------------------------------------------------------------

    def bind_frame(
        self, frame: bytes, trace_id: int, parent: Optional[int] = None
    ) -> None:
        """Associate wire bytes with a trace so frame-only layers can span.

        The binding carries a :class:`SpanContext` whose head starts at
        ``parent`` (default: the trace's most recent span), so the
        frame's spans chain causally from the span that crafted it.
        Later binds of identical bytes win (frames are retransmitted with
        fresh PSNs in practice, so true collisions are rare).
        """
        record = self._traces.get(trace_id)
        if record is None:
            return
        previous = self._frames.get(frame)
        if previous is not None:
            stale = self._traces.get(previous.trace_id)
            if stale is not None:
                stale.holds = max(0, stale.holds - 1)
        record.frames.append(frame)
        self._frames[frame] = SpanContext(
            trace_id, record.last_span_id if parent is None else parent
        )
        record.holds += 1
        self._update_bindings_gauge()

    def frame_context(self, frame: bytes) -> Optional[SpanContext]:
        """A snapshot of the frame's causal position (None if unbound).

        The returned context is a fork: advancing the live binding does
        not move it.  Impairments use this to re-bind duplicates at the
        hop where the copy was made.
        """
        context = self._frames.get(frame)
        return None if context is None else context.fork()

    def rebind_frame(
        self, frame: bytes, context: Optional[SpanContext]
    ) -> None:
        """Restore a binding from a forked context (duplicate delivery).

        No-op when ``context`` is None, the trace is gone, or the frame
        is still bound (identical bytes share one binding by design).
        """
        if context is None or frame in self._frames:
            return
        record = self._traces.get(context.trace_id)
        if record is None:
            return
        record.frames.append(frame)
        self._frames[frame] = context.fork()
        record.holds += 1
        self._update_bindings_gauge()

    # ------------------------------------------------------------------
    # Batch bindings (columnar datapath)
    # ------------------------------------------------------------------

    def bind_batch(
        self, batch, trace_id: int, parent: Optional[int] = None
    ) -> None:
        """Attach a whole :class:`~repro.rdma.frames.FrameBatch` to a trace.

        The context rides the batch object itself (surviving ``retain``
        and ``select``), so the columnar datapath records one span per
        layer per batch and never materialises per-frame bytes.
        """
        record = self._traces.get(trace_id)
        if record is None:
            return
        batch.trace_ctx = SpanContext(
            trace_id, record.last_span_id if parent is None else parent
        )
        record.holds += 1
        self._live_batches += 1
        self._update_bindings_gauge()

    def batch_span(
        self,
        batch,
        stage: str,
        detail: str = "",
        status: str = "ok",
    ) -> int:
        """Record one span against a bound batch (0 if unbound/finished)."""
        context = getattr(batch, "trace_ctx", None)
        if context is None or context.finished:
            return 0
        record = self._traces.get(context.trace_id)
        if record is None:
            return 0
        span_id = self._record_span(record, stage, detail, status, context.span_id)
        context.span_id = span_id
        return span_id

    def finish_batch(
        self,
        batch,
        stage: str,
        detail: str = "",
        status: str = "ok",
    ) -> int:
        """Record the batch's terminal span and release its binding.

        ``retain()``/``select()`` handles share one context, so only the
        first finish records a span and releases the hold; finishing a
        sibling handle afterwards is a no-op.
        """
        context = getattr(batch, "trace_ctx", None)
        if context is None:
            return 0
        batch.trace_ctx = None
        if context.finished:
            return 0
        context.finished = True
        self._live_batches = max(0, self._live_batches - 1)
        self._update_bindings_gauge()
        record = self._traces.get(context.trace_id)
        if record is None:
            return 0
        span_id = self._record_span(record, stage, detail, status, context.span_id)
        record.holds = max(0, record.holds - 1)
        self._maybe_seal(record)
        return span_id

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------

    def span(
        self,
        trace_id: int,
        stage: str,
        detail: str = "",
        status: str = "ok",
        parent: Optional[int] = None,
    ) -> int:
        """Record one span on a trace (ignored for unknown/evicted ids).

        Returns the new span's id (0 when ignored) so callers can build
        explicit subtrees.  ``parent`` defaults to the trace's root span
        -- direct operation spans hang off the root; frame chains carry
        their own parents through their bindings.
        """
        record = self._traces.get(trace_id)
        if record is None:
            return 0
        return self._record_span(
            record, stage, detail, status, record.root_span_id if parent is None else parent
        )

    def frame_span(
        self,
        frame: bytes,
        stage: str,
        detail: str = "",
        status: str = "ok",
    ) -> int:
        """Record a span against whatever trace ``frame`` is bound to.

        The span chains off the binding's context head and becomes the
        new head.  Frames from untraced sources (hand-crafted test
        frames, retries after eviction) are silently ignored.
        """
        context = self._frames.get(frame)
        if context is None:
            return 0
        record = self._traces.get(context.trace_id)
        if record is None:
            return 0
        span_id = self._record_span(record, stage, detail, status, context.span_id)
        context.span_id = span_id
        return span_id

    def finish_frame(
        self,
        frame: bytes,
        stage: str,
        detail: str = "",
        status: str = "ok",
    ) -> int:
        """Record the frame's terminal span and release its binding.

        The lifecycle fix for long runs: a delivered or dropped frame's
        binding is gone the moment its journey ends, instead of leaking
        until reset (``tracer_bindings_live`` gauges the remainder).
        """
        context = self._frames.pop(frame, None)
        if context is None:
            return 0
        self._update_bindings_gauge()
        record = self._traces.get(context.trace_id)
        if record is None:
            return 0
        span_id = self._record_span(record, stage, detail, status, context.span_id)
        record.holds = max(0, record.holds - 1)
        self._maybe_seal(record)
        return span_id

    def _record_span(
        self, record: TraceRecord, stage: str, detail: str, status: str, parent_id: int
    ) -> int:
        self._clock += 1
        self.spans_recorded += 1
        self._next_span_id += 1
        span_id = self._next_span_id
        record.spans.append(
            Span(
                seq=self._clock,
                stage=stage,
                detail=detail,
                span_id=span_id,
                parent_id=parent_id,
                status=status,
                t=perf_counter(),
            )
        )
        record.last_span_id = span_id
        if record.root_span_id == 0:
            record.root_span_id = span_id
        if status != "ok":
            record.status = status
            reason = f"status:{status}"
            if reason not in record.keep_reasons:
                record.keep_reasons.append(reason)
        return span_id

    # ------------------------------------------------------------------
    # Tail retention
    # ------------------------------------------------------------------

    def keep(self, trace_id: int, reason: str) -> None:
        """Force tail-retention of one trace (no-op for unknown ids)."""
        record = self._traces.get(trace_id) or self._kept.get(trace_id)
        if record is None:
            return
        if reason not in record.keep_reasons:
            record.keep_reasons.append(reason)
        if record.sealed:
            self._keep_record(record)

    def keep_live(self, reason: str) -> int:
        """Tail-retain every trace currently in flight; returns how many.

        The SLO engine calls this when a rule transitions to firing, so
        the traces that *witnessed* the breach survive for postmortems.
        """
        tagged = 0
        for record in self._traces.values():
            if record.sealed:
                continue
            if reason not in record.keep_reasons:
                record.keep_reasons.append(reason)
            tagged += 1
        return tagged

    def kept(self) -> List[TraceRecord]:
        """Tail-retained traces, oldest first."""
        return list(self._kept.values())

    def _keep_record(self, record: TraceRecord) -> None:
        self._kept[record.trace_id] = record
        self._kept.move_to_end(record.trace_id)
        while len(self._kept) > self.max_kept:
            self._kept.popitem(last=False)

    def _maybe_seal(self, record: TraceRecord) -> None:
        if record.sealed or not record.ended or record.holds > 0:
            return
        record.sealed = True
        self.traces_sealed += 1
        self._h_trace_seconds.observe_exemplar(
            record.duration, record.trace_id
        )
        if record.keep_reasons:
            self._keep_record(record)

    def _update_bindings_gauge(self) -> None:
        self._g_bindings.set(float(len(self._frames) + self._live_batches))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bindings_live(self) -> int:
        """Frame + batch bindings currently held (the gauge's value)."""
        return len(self._frames) + self._live_batches

    def trace(self, trace_id: int) -> Optional[TraceRecord]:
        """The record for one trace id.

        Returns the live record, the kept record for tail-retained
        traces the ring has evicted, the shared :data:`UNSAMPLED_TRACE`
        marker for ids head sampling declined, the shared
        :data:`EVICTED_TRACE` marker for sampled ids this tracer issued
        but has since evicted (ring wraparound) or dropped (reset), and
        None for ids it never issued.
        """
        record = self._traces.get(trace_id)
        if record is not None:
            return record
        record = self._kept.get(trace_id)
        if record is not None:
            return record
        if 1 <= trace_id < self._next_id:
            return EVICTED_TRACE if self.sampled(trace_id) else UNSAMPLED_TRACE
        return None

    def trace_for_frame(self, frame: bytes) -> Optional[TraceRecord]:
        """The record a frame is bound to, if any."""
        context = self._frames.get(frame)
        return None if context is None else self._traces.get(context.trace_id)

    def traces(self, kind: Optional[str] = None) -> List[TraceRecord]:
        """Live traces in begin order, optionally filtered by kind."""
        records = list(self._traces.values())
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return records

    def reset(self) -> None:
        """Drop every trace, binding and kept record (ids keep increasing)."""
        self._traces.clear()
        self._frames.clear()
        self._kept.clear()
        self._live_batches = 0
        self.active_trace_id = None
        self._g_bindings.set(0.0)


class NullTracer:
    """The no-op tracer installed by default: every method does nothing."""

    enabled = False
    max_traces = 0
    max_kept = 0
    sample_rate = 0.0
    active_trace_id: Optional[int] = None
    bindings_live = 0

    def begin(self, kind: str, key: str = "") -> int:
        """No-op; returns trace id 0 (never recorded)."""
        return 0

    def end(self, trace_id: int) -> None:
        """No-op."""

    @contextmanager
    def activate(self, trace_id: int):
        """No-op context manager."""
        yield trace_id

    def joined(self, kind: str, key: str = ""):
        """No-op context manager; yields trace id 0."""
        return nullcontext(0)

    def sampled(self, trace_id: int) -> bool:
        """Always False."""
        return False

    def bind_frame(self, frame, trace_id, parent=None) -> None:
        """No-op."""

    def frame_context(self, frame) -> None:
        """Always None."""
        return None

    def rebind_frame(self, frame, context) -> None:
        """No-op."""

    def bind_batch(self, batch, trace_id, parent=None) -> None:
        """No-op."""

    def batch_span(self, batch, stage, detail="", status="ok") -> int:
        """No-op; returns 0."""
        return 0

    def finish_batch(self, batch, stage, detail="", status="ok") -> int:
        """No-op; returns 0."""
        return 0

    def span(self, trace_id, stage, detail="", status="ok", parent=None) -> int:
        """No-op; returns 0."""
        return 0

    def frame_span(self, frame, stage, detail="", status="ok") -> int:
        """No-op; returns 0."""
        return 0

    def finish_frame(self, frame, stage, detail="", status="ok") -> int:
        """No-op; returns 0."""
        return 0

    def keep(self, trace_id, reason) -> None:
        """No-op."""

    def keep_live(self, reason) -> int:
        """No-op; returns 0."""
        return 0

    def kept(self) -> list:
        """Always empty."""
        return []

    def trace(self, trace_id: int) -> None:
        """Always None."""
        return None

    def trace_for_frame(self, frame: bytes) -> None:
        """Always None."""
        return None

    def traces(self, kind: Optional[str] = None) -> list:
        """Always empty."""
        return []

    def reset(self) -> None:
        """No-op."""


#: Shared no-op tracer singleton (the process default).
NULL_TRACER = NullTracer()
