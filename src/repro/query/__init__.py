"""repro.query: an async, multi-tenant query front end over the fleet.

DART (HotNets '21) moves telemetry *collection* off the CPU; this
package is the serving side the paper gestures at -- "millions of
users" reading the collected state back.  It layers, bottom-up:

- :mod:`~repro.query.lang` -- a small declarative language (filter /
  aggregate / top-k over keyspaces, count-min estimates and append
  rings), parsed into a typed :class:`~repro.query.lang.Query`;
- :mod:`~repro.query.backend` -- per-shard one-sided read execution
  (pipelined, flushed, retry-bounded) behind the shared response demux;
- :mod:`~repro.query.planner` -- binds a query to the epoch-current
  shard map from :mod:`repro.control`, pushes predicates and partial
  aggregation down to the shard level, merges partials;
- :mod:`~repro.query.service` -- the async front door: admission
  control, per-tenant token-bucket quotas, and a TTL result cache keyed
  on (query, epoch) so a failover's epoch bump invalidates exactly the
  answers it stales;
- :mod:`~repro.query.fleet` -- a servable demo deployment (collector
  cluster + per-shard primitive stores + optional controller);
- :mod:`~repro.query.loadgen` -- a closed-loop generator driving >=10k
  concurrent simulated users on the packet clock.
"""

from repro.query.backend import (
    QUERY_KEYS_QP_BASE,
    QUERY_STORE_QP_BASE,
    FanoutBackend,
    ShardUnavailable,
    key_text,
)
from repro.query.fleet import QueryFleet, fabric_flavour
from repro.query.lang import (
    Aggregate,
    Predicate,
    Query,
    QueryParseError,
    Source,
    parse_query,
)
from repro.query.loadgen import (
    LoadGenerator,
    LoadReport,
    UserScript,
    hot_keyset_scripts,
    quantile,
)
from repro.query.planner import (
    PartialAggregate,
    QueryAnswer,
    QueryPlan,
    ShardOutcome,
    ShardPlan,
    plan_query,
)
from repro.query.service import (
    AdmissionRejected,
    QueryService,
    QuotaExceeded,
    ResultCache,
    ServiceResult,
    TokenBucket,
)

__all__ = [
    "QUERY_KEYS_QP_BASE",
    "QUERY_STORE_QP_BASE",
    "AdmissionRejected",
    "Aggregate",
    "FanoutBackend",
    "LoadGenerator",
    "LoadReport",
    "PartialAggregate",
    "Predicate",
    "Query",
    "QueryAnswer",
    "QueryFleet",
    "QueryParseError",
    "QueryPlan",
    "QueryService",
    "QuotaExceeded",
    "ResultCache",
    "ServiceResult",
    "ShardOutcome",
    "ShardPlan",
    "ShardUnavailable",
    "Source",
    "TokenBucket",
    "UserScript",
    "fabric_flavour",
    "hot_keyset_scripts",
    "key_text",
    "parse_query",
    "plan_query",
    "quantile",
]
