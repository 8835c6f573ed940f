"""The query planner: typed query + epoch-current shard map -> fan-out plan.

Sonata's core lesson is *push-down*: move filtering and partial
aggregation as close to the data as possible so the merge step handles
partials, not raw rows.  This planner applies it at two levels:

1. **Key push-down.**  Predicates decidable from the key alone
   (``key == ...``, ``key contains ...``) prune the candidate set
   *before* any shard is contacted -- a fully pruned shard is not read
   at all.
2. **Shard push-down.**  Row predicates and partial aggregation run
   per shard inside :meth:`QueryPlan.execute`; the merge combines
   :class:`PartialAggregate` records (sum/count/min/max commute across
   shards) or pre-filtered rows, never unfiltered data.

A plan is bound to one :class:`~repro.control.shards.ShardMap` epoch.
The service re-plans when the epoch moves; :meth:`QueryPlan.explain`
renders the binding for operators (`repro query --explain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.control.shards import ShardMap
from repro.core.policies import ReturnPolicy
from repro.hashing.hash_family import Key
from repro.query.backend import FanoutBackend, ShardLanes, ShardUnavailable, key_text
from repro.query.lang import Aggregate, Predicate, Query, Source


@dataclass(frozen=True)
class ShardPlan:
    """The slice of a query one shard executes."""

    role: int
    node_id: int
    #: Candidate keys this shard stores (empty for key-less sources).
    keys: Tuple[Key, ...]
    #: The keys' slice of the query's one fold and resolve pass (None for
    #: key-less sources): every shard read takes its locations from it.
    resolved: Optional[ShardLanes] = field(compare=False, repr=False)

    def describe(self) -> str:
        """One-line operator rendering of the shard slice."""
        return (
            f"shard role={self.role} node={self.node_id} "
            f"keys={len(self.keys)}"
        )


@dataclass
class PartialAggregate:
    """One shard's commutative aggregation state (the merge's input).

    ``sum``/``count``/``min``/``max`` all merge associatively, and
    ``avg`` merges as ``sum / count`` -- which is exactly why partial
    aggregation can be pushed down to the shard level.
    """

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one row's numeric field into the partial."""
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def merge(self, other: "PartialAggregate") -> None:
        """Fold another shard's partial into this one."""
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            self.minimum = (
                other.minimum
                if self.minimum is None
                else min(self.minimum, other.minimum)
            )
        if other.maximum is not None:
            self.maximum = (
                other.maximum
                if self.maximum is None
                else max(self.maximum, other.maximum)
            )

    def final(self, aggregate: Aggregate) -> Optional[float]:
        """The merged answer for one aggregate (None on an empty window)."""
        if aggregate is Aggregate.COUNT:
            return float(self.count)
        if not self.count:
            return None
        if aggregate is Aggregate.SUM:
            return self.total
        if aggregate is Aggregate.AVG:
            return self.total / self.count
        if aggregate is Aggregate.MIN:
            return self.minimum
        if aggregate is Aggregate.MAX:
            return self.maximum
        raise ValueError(f"not a foldable aggregate: {aggregate!r}")


@dataclass
class ShardOutcome:
    """What one shard contributed to a query (or why it could not)."""

    plan: ShardPlan
    #: Filtered rows (projections) -- empty when aggregating.
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: Shard-local aggregation state (None when projecting).
    partial: Optional[PartialAggregate] = None
    #: Set when the shard was unreachable; its data is missing from the
    #: merged answer (a *partial-shard failure*, surfaced in health).
    failed: bool = False


@dataclass
class QueryAnswer:
    """The merged result of one fan-out."""

    query: Query
    epoch: int
    #: Projected rows (post top-k) for PROJECT queries, else empty.
    rows: List[Dict[str, object]]
    #: The folded scalar for aggregate queries, else None.
    value: Optional[float]
    shards_total: int = 0
    shards_failed: int = 0

    @property
    def complete(self) -> bool:
        """Whether every planned shard contributed."""
        return self.shards_failed == 0

    def projected(self) -> List[object]:
        """Just the selected field of each merged row, in merge order."""
        return [row.get(self.query.field) for row in self.rows]


class QueryPlan:
    """One query bound to one shard-map epoch, ready to execute.

    Built by :func:`plan_query`; executed by the service (or directly in
    tests) against a :class:`~repro.query.backend.FanoutBackend`.
    """

    def __init__(
        self,
        query: Query,
        shard_map: ShardMap,
        shards: List[ShardPlan],
        pruned_keys: int,
        policy: ReturnPolicy,
    ) -> None:
        self.query = query
        self.shard_map = shard_map
        self.shards = shards
        #: Candidate keys eliminated by key push-down (never read).
        self.pruned_keys = pruned_keys
        self.policy = policy

    @property
    def epoch(self) -> int:
        """The shard-map epoch this plan is bound to."""
        return self.shard_map.epoch

    def explain(self) -> str:
        """Operator rendering: binding, push-down effect, shard fan-out."""
        query = self.query
        lines = [
            f"plan for: {query.canonical()}",
            f"  epoch:     {self.epoch}",
            f"  policy:    {self.policy.name}",
            f"  push-down: {self.pruned_keys} candidate(s) pruned by key "
            f"predicates, {len(query.row_predicates)} row predicate(s) "
            f"evaluated per shard",
            f"  fan-out:   {len(self.shards)} shard(s)",
        ]
        lines.extend(f"    {shard.describe()}" for shard in self.shards)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self, backend: FanoutBackend, shards: Optional[List[ShardPlan]] = None
    ) -> List[ShardOutcome]:
        """Run every shard's slice (or just ``shards``'): read, filter,
        partially aggregate.  A keys query reads all its shards in one pass
        (:meth:`FanoutBackend.keys_rows`); any other source shard by shard.
        An unreachable shard is a failed outcome, and the others stand."""
        query = self.query
        shards = self.shards if shards is None else shards
        assignments, keys, resolved = [], [], []
        for shard in shards:
            assignments.append(self.shard_map.assignment(shard.role))
            keys.extend(shard.keys)
            resolved.append(shard.resolved)
        if query.source is Source.KEYS:
            results = backend.keys_rows(assignments, keys, self.policy, resolved)
        else:
            results = []
            for shard, assignment in zip(shards, assignments):
                try:
                    results.append(backend.rows_for(
                        query.source.value, assignment, shard.keys, shard.resolved
                    ))
                except ShardUnavailable as unavailable:
                    results.append(unavailable)
        return list(map(self._outcome, shards, results))

    def execute_shard(self, backend: FanoutBackend, shard: ShardPlan) -> ShardOutcome:
        """Run one shard's slice: :meth:`execute`'s one-shard case."""
        (outcome,) = self.execute(backend, [shard])
        return outcome

    def _outcome(self, shard: ShardPlan, rows) -> ShardOutcome:
        """One shard's read ``rows`` (or its :class:`ShardUnavailable`),
        filtered and partially aggregated."""
        query = self.query
        outcome = ShardOutcome(plan=shard)
        if isinstance(rows, ShardUnavailable):
            outcome.failed = True
            return outcome
        # Shard-level push-down: row predicates filter here, not centrally.
        for predicate in query.row_predicates:
            rows = [row for row in rows if predicate.matches(row)]
        if query.aggregate is Aggregate.PROJECT:
            outcome.rows = rows
            return outcome
        partial = PartialAggregate()
        if query.aggregate is Aggregate.COUNT:
            partial.count = len(rows)
        else:
            for row in rows:
                value = row.get(query.field)
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    partial.observe(float(value))
        outcome.partial = partial
        return outcome

    def merge(self, outcomes: List[ShardOutcome]) -> QueryAnswer:
        """Fold every shard's contribution into the final answer."""
        query = self.query
        answer = QueryAnswer(
            query=query,
            epoch=self.epoch,
            rows=[],
            value=None,
            shards_total=len(outcomes),
            shards_failed=sum(1 for o in outcomes if o.failed),
        )
        if query.aggregate is Aggregate.PROJECT:
            rows: List[Dict[str, object]] = []
            for outcome in outcomes:
                rows.extend(outcome.rows)
            if query.top_k is not None:
                order = query.order_field or query.field
                rows.sort(
                    key=lambda row: (
                        row.get(order) is not None,
                        row.get(order) or 0,
                    ),
                    reverse=True,
                )
                rows = rows[: query.top_k]
            answer.rows = rows
            return answer
        merged = PartialAggregate()
        for outcome in outcomes:
            if outcome.partial is not None:
                merged.merge(outcome.partial)
        answer.value = merged.final(query.aggregate)
        return answer


def plan_query(
    query: Query,
    shard_map: ShardMap,
    backend: FanoutBackend,
    keys: Optional[List[Key]] = None,
    default_policy: ReturnPolicy = ReturnPolicy.PLURALITY,
) -> QueryPlan:
    """Bind ``query`` to the epoch-current shard map.

    ``keys`` is the candidate key set (DART stores cannot enumerate
    keys; the operator or service supplies candidates).  Key predicates
    prune it *here* -- before any shard is contacted -- and the
    survivors are folded and resolved once and grouped by collector role
    (:meth:`FanoutBackend.shards_for
    <repro.query.backend.FanoutBackend.shards_for>`), so each shard
    receives exactly the keys it stores, slots attached.  Shards with no candidates are
    dropped from the fan-out entirely (except for key-less sources,
    which always cover the fleet).
    """
    pruned = 0
    key_predicates = query.key_predicates
    if keys is not None and key_predicates:
        survivors = []
        for key in keys:
            row = {"key": key_text(key)}
            if all(p.matches(row) for p in key_predicates):
                survivors.append(key)
        pruned = len(keys) - len(survivors)
        keys = survivors
    keyed_source = query.source is not Source.RING
    grouped = backend.shards_for(shard_map, keys if keyed_source else None)
    shards = []
    for role in sorted(grouped):
        shard_keys, resolved = grouped[role]
        if keyed_source and not shard_keys:
            continue
        shards.append(
            ShardPlan(
                role=role,
                node_id=shard_map.node_for(role),
                keys=tuple(shard_keys),
                resolved=resolved,
            )
        )
    policy = query.policy if query.policy is not None else default_policy
    return QueryPlan(
        query=query,
        shard_map=shard_map,
        shards=shards,
        pruned_keys=pruned,
        policy=policy,
    )


#: Re-exported for callers that match on predicate behaviour.
__all__ = [
    "PartialAggregate",
    "Predicate",
    "QueryAnswer",
    "QueryPlan",
    "ShardOutcome",
    "ShardPlan",
    "plan_query",
]
