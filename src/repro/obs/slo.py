"""Declarative SLOs over the scraped time series, with an alert lifecycle.

Query-driven telemetry systems (Sonata and friends) showed the value of
continuously evaluating declarative conditions over streaming metrics;
this module is that idea applied to the DART pipeline's own health:

- :class:`SloRule` -- a metric expression, a comparator, a threshold and a
  *for-duration* (consecutive breached evaluations before firing);
- :class:`SloEngine` -- evaluates every rule once per scrape against an
  :class:`~repro.obs.timeseries.MetricsScraper` window and drives each
  rule's alert through ``ok -> pending -> firing -> resolved``, mirroring
  the state into registry gauges (``alerts_firing``, ``alerts_pending``)
  so alert pressure shows up in the Prometheus exposition like any other
  series;
- :func:`conformance_rules` -- the paper-model watchdogs: they compute the
  closed-form expected query-success probability from the run's live
  ``(N, b, load factor)`` configuration (section 4's
  :func:`~repro.core.theory.average_queryability`) and fire when the
  *measured* per-policy success from
  :class:`~repro.obs.health.PipelineHealth` falls below the model by more
  than a tolerance band -- the signature of report loss or datapath bugs
  that redundancy alone can't explain.

Expressions are deliberately small: a rule's ``expr`` is either a callable
``(EvalContext) -> Optional[float]`` or one of the string forms
``"health.<attr>"``, ``"rate(<metric>)"``, ``"delta(<metric>)"`` and
``"<metric>"`` (family-wide live total).  ``None`` means "no data yet" and
never breaches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.health import PipelineHealth
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import MetricsScraper

#: Comparator name -> predicate(value, threshold).
COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    "==": lambda value, threshold: value == threshold,
    "!=": lambda value, threshold: value != threshold,
}

#: ``fn(metric_name)`` string-expression shape (``rate`` / ``delta``).
_FN_EXPR = re.compile(r"^(rate|delta)\(\s*([A-Za-z_][\w]*)\s*\)$")


class AlertState(Enum):
    """Lifecycle of one rule's alert."""

    #: Never breached (or breached for fewer than ``for_ticks`` scrapes
    #: without ever firing).
    OK = "ok"
    #: Condition breached, but not yet for ``for_ticks`` consecutive
    #: evaluations.
    PENDING = "pending"
    #: Breached for at least ``for_ticks`` consecutive evaluations.
    FIRING = "firing"
    #: Previously firing; the condition has since cleared.
    RESOLVED = "resolved"


@dataclass
class EvalContext:
    """What a rule expression may look at during one evaluation round.

    ``health`` is reconciled once per round (not per rule) from the same
    registry the scraper samples, so every rule in a round sees one
    consistent reading.
    """

    scraper: MetricsScraper
    registry: MetricsRegistry
    health: PipelineHealth
    tick: int


Expr = Union[str, Callable[[EvalContext], Optional[float]]]


@dataclass
class SloRule:
    """One declarative service-level rule.

    Parameters
    ----------
    name:
        Unique rule identity (``alerts`` output, gauge labels).
    expr:
        Metric expression -- see module docstring for the string forms.
    comparator:
        One of ``> >= < <= == !=`` (breach when true against ``threshold``).
    threshold:
        The bound the expression is compared against.
    for_ticks:
        Consecutive breached evaluations before ``pending`` becomes
        ``firing`` (1 fires immediately; the classic Prometheus ``for:``).
    description:
        Operator-facing one-liner shown by ``repro obs alerts``.
    """

    name: str
    expr: Expr
    comparator: str
    threshold: float
    for_ticks: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise ValueError(
                f"unknown comparator {self.comparator!r}; "
                f"expected one of {sorted(COMPARATORS)}"
            )
        if self.for_ticks < 1:
            raise ValueError(f"for_ticks must be >= 1, got {self.for_ticks}")

    def evaluate(self, context: EvalContext) -> Optional[float]:
        """The expression's current value (None when no data exists yet)."""
        expr = self.expr
        if callable(expr):
            return expr(context)
        if expr.startswith("health."):
            value = getattr(context.health, expr[len("health."):])
            return None if value is None else float(value)
        match = _FN_EXPR.match(expr)
        if match is not None:
            fn, metric = match.groups()
            series = context.scraper.family(metric)
            if not series:
                return None
            if fn == "rate":
                return sum(s.rate() for s in series)
            return context.scraper.total_delta(metric)
        return float(context.registry.total(expr))

    def breached(self, value: Optional[float]) -> bool:
        """Whether ``value`` violates this rule (None never breaches)."""
        if value is None:
            return False
        return COMPARATORS[self.comparator](value, self.threshold)


@dataclass
class Alert:
    """The live alert attached to one rule."""

    rule: SloRule
    state: AlertState = AlertState.OK
    #: Last evaluated expression value (None before the first round).
    value: Optional[float] = None
    #: Tick at which the current breach streak started (None outside one).
    pending_since: Optional[int] = None
    #: Tick of the most recent ok->...->firing transition, if any.
    fired_at: Optional[int] = None
    #: Consecutive breached evaluations in the current streak.
    streak: int = 0
    #: Every state transition as ``(tick, AlertState)``, in order.
    transitions: List[Tuple[int, AlertState]] = field(default_factory=list)

    @property
    def firing(self) -> bool:
        """Whether the alert is currently firing."""
        return self.state is AlertState.FIRING

    def _transition(self, tick: int, state: AlertState) -> None:
        if state is not self.state:
            self.state = state
            self.transitions.append((tick, state))

    def observe(self, tick: int, value: Optional[float], breached: bool) -> None:
        """Advance the lifecycle with one evaluation's outcome."""
        self.value = value
        if breached:
            self.streak += 1
            if self.pending_since is None:
                self.pending_since = tick
            if self.streak >= self.rule.for_ticks:
                if self.state is not AlertState.FIRING:
                    self.fired_at = tick
                self._transition(tick, AlertState.FIRING)
            else:
                self._transition(tick, AlertState.PENDING)
        else:
            self.streak = 0
            self.pending_since = None
            if self.state in (AlertState.FIRING, AlertState.RESOLVED):
                self._transition(tick, AlertState.RESOLVED)
            else:
                self._transition(tick, AlertState.OK)

    def render(self) -> str:
        """One-line operator rendering of the alert."""
        value = "n/a" if self.value is None else f"{self.value:.4g}"
        line = (
            f"[{self.state.value:>8}] {self.rule.name:<28} "
            f"{self.rule.comparator} {self.rule.threshold:g} "
            f"(value={value}, for={self.rule.for_ticks})"
        )
        if self.rule.description:
            line += f"  -- {self.rule.description}"
        return line


class SloEngine:
    """Evaluates a rule set against the scraper once per scrape.

    The engine owns one :class:`Alert` per rule and two registry gauges --
    ``alerts_firing`` and ``alerts_pending`` -- updated every round, so the
    alert lifecycle is itself observable (and asserted in the acceptance
    tests via the Prometheus exposition).
    """

    def __init__(
        self,
        scraper: MetricsScraper,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.scraper = scraper
        self.registry = registry if registry is not None else scraper.registry
        self._alerts: "Dict[str, Alert]" = {}
        self._fire_hooks: List[Callable[[Alert, int], None]] = []
        self.evaluations = 0
        self._g_firing = self.registry.gauge(
            "alerts_firing", help="SLO rules currently in the firing state"
        )
        self._g_pending = self.registry.gauge(
            "alerts_pending", help="SLO rules currently in the pending state"
        )

    def __repr__(self) -> str:
        return (
            f"SloEngine(rules={len(self._alerts)}, "
            f"firing={len(self.firing())}, evaluations={self.evaluations})"
        )

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------

    def add_rule(self, rule: SloRule) -> Alert:
        """Register one rule; returns its (initially ok) alert."""
        if rule.name in self._alerts:
            raise ValueError(f"rule {rule.name!r} already registered")
        alert = Alert(rule=rule)
        self._alerts[rule.name] = alert
        return alert

    def add_rules(self, rules) -> None:
        """Register a batch of rules."""
        for rule in rules:
            self.add_rule(rule)

    def add_fire_hook(self, hook: Callable[[Alert, int], None]) -> None:
        """Call ``hook(alert, tick)`` whenever an alert transitions to firing.

        The auto-postmortem seam: :class:`~repro.obs.bundle.AutoBundler`
        registers here so a firing SLO dumps a debug bundle the moment it
        happens, with the journal tail still warm.  Hooks run after the
        whole evaluation round (gauges already updated), once per ok/
        pending->firing edge -- not on every firing evaluation.
        """
        self._fire_hooks.append(hook)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, tick: Optional[int] = None) -> List[Alert]:
        """Run every rule against the current window; returns all alerts.

        Call once per scrape (the CLI and simulation drivers do).  ``tick``
        defaults to the scraper's last scrape tick.
        """
        if tick is None:
            tick = self.scraper.last_tick if self.scraper.last_tick is not None else 0
        context = EvalContext(
            scraper=self.scraper,
            registry=self.registry,
            health=PipelineHealth.from_registry(self.registry),
            tick=tick,
        )
        # Imported lazily: repro.obs re-exports this module at import time.
        from repro import obs

        journal = obs.get_journal()
        newly_firing: List[Alert] = []
        for alert in self._alerts.values():
            previous = alert.state
            value = alert.rule.evaluate(context)
            alert.observe(tick, value, alert.rule.breached(value))
            if alert.state is not previous:
                journal.record(
                    "slo_alert",
                    f"{alert.rule.name}: {previous.value} -> {alert.state.value}",
                    tick=tick,
                    rule=alert.rule.name,
                    state=alert.state.value,
                    value="n/a" if alert.value is None else f"{alert.value:.6g}",
                )
                if alert.state is AlertState.FIRING:
                    newly_firing.append(alert)
                    # Tail-based retention: the traces in flight when a
                    # rule starts firing are the ones that witnessed the
                    # breach -- keep them for the postmortem.
                    obs.get_tracer().keep_live(f"slo:{alert.rule.name}")
        self.evaluations += 1
        self._g_firing.set(float(len(self.firing())))
        self._g_pending.set(
            float(
                sum(
                    1
                    for alert in self._alerts.values()
                    if alert.state is AlertState.PENDING
                )
            )
        )
        for alert in newly_firing:
            for hook in self._fire_hooks:
                hook(alert, tick)
        return self.alerts()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def alert(self, name: str) -> Alert:
        """The alert for one rule name (KeyError if unknown)."""
        return self._alerts[name]

    def alerts(self) -> List[Alert]:
        """Every alert, in rule-registration order."""
        return list(self._alerts.values())

    def firing(self) -> List[Alert]:
        """The alerts currently firing."""
        return [a for a in self._alerts.values() if a.firing]

    def render(self) -> str:
        """The ``repro obs alerts`` table: one line per rule, firing first."""
        order = {
            AlertState.FIRING: 0,
            AlertState.PENDING: 1,
            AlertState.RESOLVED: 2,
            AlertState.OK: 3,
        }
        alerts = sorted(
            self._alerts.values(), key=lambda a: (order[a.state], a.rule.name)
        )
        lines = [
            f"== alerts ({len(self.firing())} firing, "
            f"{self.evaluations} evaluations) =="
        ]
        lines.extend(alert.render() for alert in alerts)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Built-in rules
# ----------------------------------------------------------------------


def default_rules() -> List[SloRule]:
    """The stock pipeline-health rules every deployment wants.

    Frame-loss rate, NIC drop deltas and fabric-vs-NIC reconciliation --
    the invariants PR 1's property tests assert once, watched continuously.
    """
    return [
        SloRule(
            name="frame-loss-rate",
            expr="health.loss_rate",
            comparator=">",
            threshold=0.05,
            for_ticks=2,
            description="impairment-layer frame loss above tolerance",
        ),
        SloRule(
            name="nic-drops",
            expr="health.nic_frames_dropped",
            comparator=">",
            threshold=0,
            for_ticks=2,
            description="NIC silently dropping frames (decode/QP/PSN/access)",
        ),
        SloRule(
            name="fabric-nic-reconciliation",
            expr=lambda ctx: float(abs(ctx.health.fabric_nic_delta)),
            comparator=">",
            threshold=0.0,
            for_ticks=2,
            description="delivered-vs-received frame accounting diverged",
        ),
    ]


#: How far measured success may sit below the section-4 model.
CONFORMANCE_TOLERANCE = 0.1
#: Queries a policy must have served before its rule evaluates at all.
CONFORMANCE_MIN_QUERIES = 32


def expected_success(config, keys_written: int) -> float:
    """The paper's closed-form expected query success for a live run.

    Section 4's average queryability at the run's measured load factor
    ``alpha = keys_written / total_slots`` with the configured redundancy
    ``N`` -- the model half of the conformance band.  (The checksum-width
    ``b`` correction is below 1e-9 for the 32-bit default, so the
    queryability form is the band's centre.)
    """
    from repro.core import theory

    alpha = config.load_factor(keys_written)
    return float(theory.average_queryability(alpha, config.redundancy))


def conformance_rules(config, for_ticks: int = 2) -> List[SloRule]:
    """The model-vs-measured conformance rule for the paper's success model.

    Each evaluation recomputes the expected PLURALITY success probability
    from the run's live ``(N, b, load factor)`` via
    :func:`expected_success` (load factor from the ``store_puts`` counter
    family) and compares it with the measured success rate from
    :class:`~repro.obs.health.PipelineHealth`.  The rule breaches when
    the measurement falls below the model by more than
    :data:`CONFORMANCE_TOLERANCE` -- i.e. the pipeline is losing reports or
    corrupting slots in a way redundancy can't explain -- and fires after
    ``for_ticks`` consecutive breached scrapes.

    Evaluations return None (never breach) until
    :data:`CONFORMANCE_MIN_QUERIES` queries ran under the policy, so cold
    starts don't flap.
    """

    def shortfall(context: EvalContext) -> Optional[float]:
        """Model-minus-measured success (None = no data)."""
        measured = None
        for query in context.health.queries:
            if query.policy == "PLURALITY" and query.total >= CONFORMANCE_MIN_QUERIES:
                measured = query.success_rate
        if measured is None:
            return None
        keys_written = int(context.registry.total("store_puts"))
        if keys_written == 0:
            return None
        return expected_success(config, keys_written) - measured

    return [
        SloRule(
            name="conformance-PLURALITY",
            expr=shortfall,
            comparator=">",
            threshold=CONFORMANCE_TOLERANCE,
            for_ticks=for_ticks,
            description=(
                f"measured PLURALITY success below the section-4 model "
                f"(N={config.redundancy}, b={config.checksum_bits}) "
                f"by more than {CONFORMANCE_TOLERANCE:g}"
            ),
        )
    ]
