"""The DART read path: operator queries against collector memory.

Queries follow the four steps of paper section 3.2:

1. hash the key to find the collector ID;
2. look the collector up (a read callback supplied by the deployment);
3. hash the key into its N slot indexes and read those slots;
4. discard slots whose stored checksum mismatches the key's, then apply a
   return policy to what remains.

The client is deliberately decoupled from how slots are read: it receives a
``SlotReader`` callable, so the same logic serves in-process stores, the
packet-level collector model and historical epoch archives.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro import obs
from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.core.policies import QueryResult, ReturnPolicy, fold_slots
from repro.hashing.hash_family import Key

#: Reads one slot: (collector_id, slot_index) -> raw slot bytes, or
#: ``None`` when the read was lost (a one-sided READ over a lossy fabric).
SlotReader = Callable[[int, int], Optional[bytes]]


class DartQueryClient:
    """Executes key-based queries against a DART deployment.

    Parameters
    ----------
    config:
        The shared deployment configuration.
    reader:
        Callback that fetches raw slot bytes from a collector's region;
        ``None`` for a read that was lost, which the query drops before
        the fold exactly as it would a slot overwritten by another key.
    policy:
        Default return policy; individual queries may override it -- the
        paper notes the policy "can be decided on a per query basis without
        changing anything else" (section 4).
    """

    def __init__(
        self,
        config: DartConfig,
        reader: SlotReader,
        policy: ReturnPolicy = ReturnPolicy.PLURALITY,
    ) -> None:
        self.config = config
        self.addressing = DartAddressing(config)
        self._codec = config.slot_codec()
        self._reader = reader
        self.policy = policy
        registry = obs.get_registry()
        self._registry = registry
        self._tracer = obs.get_tracer()
        self._labels = registry.instance_labels(type(self).__name__)
        #: Queries executed, across all policies.
        self.c_queries = registry.counter(
            "client_queries_executed", labels=self._labels
        )
        #: Per-policy (total, answered) counters, created on first use.
        self._policy_counters: Dict[str, Tuple[object, object]] = {}
        self._t_query = registry.stage("client.query")

    @property
    def queries_executed(self) -> int:
        """Queries executed across all policies (registry-backed)."""
        return self.c_queries.value

    def _counters_for(self, policy: ReturnPolicy):
        """The (total, answered) counter pair for one return policy."""
        pair = self._policy_counters.get(policy.name)
        if pair is None:
            labels = self._labels + (("policy", policy.name),)
            pair = (
                self._registry.counter("queries_total", labels=labels),
                self._registry.counter("queries_answered", labels=labels),
            )
            self._policy_counters[policy.name] = pair
        return pair

    def __repr__(self) -> str:
        return f"DartQueryClient(config={self.config!r}, policy={self.policy})"

    def query(
        self, key: Key, policy: Optional[ReturnPolicy] = None
    ) -> QueryResult:
        """Run a key query and return the resolved result."""
        if policy is None:
            policy = self.policy
        started = self._t_query.start()
        resolved = self.addressing.resolve(key)
        reads = (
            self._reader(resolved.collector_id, slot_index)
            for slot_index in resolved.slot_indexes
        )
        # A lost READ is treated like an overwritten slot.
        raws = [raw for raw in reads if raw is not None]
        self.c_queries.inc()
        result = fold_slots(self._codec, raws, resolved.checksum, policy)
        total, answered = self._counters_for(policy)
        total.inc()
        if result.answered:
            answered.inc()
        tracer = self._tracer
        trace_id = 0
        if tracer.enabled:
            # One tree across planes: a query inside a larger operation
            # is a span of it, a standalone one its own trace.
            with tracer.joined("query", key=repr(key)) as trace_id:
                tracer.span(
                    trace_id,
                    "client.query",
                    f"policy={policy.name} outcome={result.outcome.name}",
                    status="ok" if result.answered else "miss",
                )
        # Exemplar: a p99 bucket links back to this trace.
        self._t_query.stop(started, trace_id or None)
        return result

    def query_many(self, keys) -> "dict[Key, QueryResult]":
        """Batch query: ``{key: QueryResult}`` for each distinct key.

        Operators typically sweep whole key populations (every flow seen
        by the anomaly backend, every path in an audit); this wraps the
        per-key path and deduplicates repeated keys.
        """
        results: dict = {}
        for key in keys:
            if key not in results:
                results[key] = self.query(key)
        return results

    def success_fraction(self, keys) -> float:
        """Fraction of ``keys`` whose query answered (operator dashboard
        number; ground-truth correctness needs the evaluation harnesses)."""
        results = self.query_many(keys)
        if not results:
            raise ValueError("no keys supplied")
        return sum(r.answered for r in results.values()) / len(results)
