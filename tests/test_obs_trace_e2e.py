"""End-to-end acceptance: one causal span tree across both planes.

The scenario the tracing subsystem exists for: a writer drives an
Append batch through switch-side translation -> impaired fabric -> NIC
-> collector ring while an operator issues a one-sided READ, all under
5% frame loss with a deliberately slow collector NIC on the query leg.
One trace must tell the whole story:

- the reservation FETCH_ADDs, the columnar WRITE batch, the retries and
  the query READ hang off a single root (data + query planes, one tree);
- a lost reservation surfaces as a ``retry`` child span of the reserve;
- the ``trace_seconds`` histogram's p99 bucket exposes an exemplar trace
  id that resolves to a tail-retained trace;
- :class:`~repro.obs.TraceAnalyzer` names the injected-delay stage
  (``query.read_run`` against the slowed NIC) as the critical path.
"""

import time

import pytest

from repro import obs
from repro.fabric import ImpairedFabric, InlineFabric
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.trace_analysis import TraceAnalyzer
from repro.primitives import AppendStore
from repro.primitives.clients import APPEND_READER_QP_BASE, OneSidedReader

#: Pinned so the impairment schedule loses at least one reservation
#: FETCH_ADD (forcing a visible retry) while the query READ survives.
SEED = 2

#: Frame loss of the impaired fabric (the acceptance scenario's 5%).
LOSS = 0.05

#: Injected NIC service delay on the query leg (dominates the trace).
DELAY = 0.02


class SlowPort:
    """Delegating NIC wrapper that injects scalar-ingest service delay."""

    def __init__(self, inner):
        self.inner = inner
        self.delay = 0.0

    def receive_frame(self, frame):
        if self.delay:
            time.sleep(self.delay)
        return self.inner.receive_frame(frame)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def run_scenario(seed=SEED, delay=DELAY):
    """Run the acceptance scenario; returns (tracer, registry, record,
    payload) where ``record`` is the single cross-plane trace."""
    registry = obs.MetricsRegistry()
    previous_registry = obs.set_registry(registry)
    tracer = obs.Tracer(sample_rate=1.0)
    previous_tracer = obs.set_tracer(tracer)
    try:
        fabric = ImpairedFabric(InlineFabric(), loss=LOSS, seed=seed)
        store = AppendStore(capacity=64, record_bytes=16, fabric=fabric)
        slow = SlowPort(store.nic)
        fabric.detach(store.endpoint_id)
        fabric.attach(store.endpoint_id, slow)
        writer = store.register_writer(0)
        reader = OneSidedReader(
            fabric,
            store.endpoint_id,
            store.nic,
            APPEND_READER_QP_BASE,
            store.demux,
            store.region.rkey,
        )

        trace_id = tracer.begin("e2e", key="append+query")
        tracer.span(trace_id, "test.scenario", "append batch + query read")
        with tracer.activate(trace_id):
            # Data plane: one columnar batch plus per-record appends --
            # every reservation FETCH_ADD rides this same trace, so a
            # lost one records its retry as a child span.
            writer.append_many([b"batch-%03d" % i for i in range(8)])
            for i in range(12):
                writer.append(b"solo-%04d" % i)
            # Query plane: a one-sided READ against the slowed NIC.
            slow.delay = delay
            payloads, answered = reader.read_run([store.data_address], store.record_bytes)
            payload = payloads[0].tobytes() if answered[0] else None
            slow.delay = 0.0
        tracer.end(trace_id)
        record = tracer.trace(trace_id)
        return tracer, registry, record, payload
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_registry(previous_registry)


@pytest.fixture(scope="module")
def scenario():
    return run_scenario()


def test_one_causal_tree_spans_both_planes(scenario):
    tracer, _registry, record, payload = scenario
    assert record is not None and record.sealed
    # Data plane: switch-side translation, fabric delivery, NIC ingest.
    assert "primitive.append" in record.stages
    assert "append.reserve" in record.stages
    assert "nic.ingest" in record.stages
    assert "fabric.deliver" in record.stages
    # Query plane, in the same tree.
    assert "query.read_run" in record.stages
    assert payload is not None and payload.startswith(b"batch-000")
    # It really is one tree: a single root, structurally complete.
    analysis = TraceAnalyzer().analyze(record)
    assert analysis.complete, analysis.problems
    roots = [t for t in analysis.timings if t.depth == 0]
    assert len(roots) == 1
    assert roots[0].span.stage == "test.scenario"
    # The terminal bindings all released: nothing leaks past sealing.
    assert tracer.bindings_live == 0


def test_lost_reservation_is_a_retry_child_span(scenario):
    _tracer, _registry, record, _payload = scenario
    retries = [s for s in record.spans if s.stage == "append.reserve.retry"]
    assert retries, "pinned seed must lose at least one FETCH_ADD"
    for retry in retries:
        assert retry.status == "retry"
        parent = record.span_by_id(retry.parent_id)
        assert parent is not None
        assert parent.stage == "append.reserve"


def test_p99_exemplar_resolves_to_kept_trace(scenario):
    tracer, registry, record, _payload = scenario
    histogram = registry.histogram("trace_seconds", LATENCY_BUCKETS)
    exemplar = histogram.exemplar(0.99)
    assert exemplar == record.trace_id
    resolved = tracer.trace(exemplar)
    assert resolved is record
    # Tail retention fired: the retry (and any drops) force-keep it.
    assert resolved.keep_reasons
    assert resolved in tracer.kept()


def test_injected_delay_stage_is_the_critical_path(scenario):
    _tracer, _registry, record, _payload = scenario
    analysis = TraceAnalyzer().analyze(record)
    path_stages = [t.span.stage for t in analysis.critical_path]
    assert path_stages[0] == "test.scenario"
    assert "query.read_run" in path_stages
    # The slowed NIC owns the wall-clock: query.read_run is dominant and
    # holds the majority of the end-to-end duration.
    assert analysis.dominant_stage == "query.read_run"
    assert analysis.dominant.self_time >= 0.5 * analysis.duration


def test_scenario_without_delay_is_append_bound():
    """Control: remove the injected delay and the query leg no longer
    dominates -- the analyzer's answer tracks the actual bottleneck."""
    _tracer, _registry, record, _payload = run_scenario(delay=0.0)
    analysis = TraceAnalyzer().analyze(record)
    assert analysis.complete, analysis.problems
    assert analysis.dominant_stage != "query.read_run"
