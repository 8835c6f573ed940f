"""DART core: the paper's primary contribution.

This package implements the direct-telemetry-access algorithm itself,
independent of any particular wire format or switch model:

- :mod:`repro.core.config` -- :class:`DartConfig`, the network-wide
  configuration every switch and query client shares.
- :mod:`repro.core.addressing` -- the stateless global mapping from
  telemetry keys to (collector, slot) locations.
- :mod:`repro.core.policies` -- query return policies (single-value,
  plurality vote, consensus-of-two) from paper section 4.
- :mod:`repro.core.reporter` -- the write path: key/value to slot writes.
- :mod:`repro.core.client` -- the read path: key to query result.
- :mod:`repro.core.theory` -- closed-form success/error probabilities
  (paper section 4).
- :mod:`repro.core.simulator` -- vectorised slot-level simulator used for
  the paper's statistical experiments (Figures 3-5).
- :mod:`repro.core.cas_store` -- the Compare&Swap write strategy sketched
  in paper section 7.
- :mod:`repro.core.dynamic_n` -- a dynamic-redundancy controller (the
  future work suggested in section 5.1).
"""

from repro.core.config import DartConfig
from repro.core.addressing import DartAddressing, ResolvedKey
from repro.core.batch import ReportBatch
from repro.core.policies import QueryOutcome, QueryResult, ReturnPolicy
from repro.core.reporter import DartReporter, SlotWrite
from repro.core.client import DartQueryClient

__all__ = [
    "DartAddressing",
    "DartConfig",
    "DartQueryClient",
    "DartReporter",
    "QueryOutcome",
    "QueryResult",
    "ReportBatch",
    "ResolvedKey",
    "ReturnPolicy",
    "SlotWrite",
]
