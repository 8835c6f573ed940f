"""Dynamic redundancy control (paper section 5.1 future work).

"We conclude that dynamically adjusting N as the load fluctuates could
improve queryability and efficiency, and leave finding a good mechanism as
future work."  This module supplies such a mechanism:

- a load estimator smoothing the observed distinct-key arrival rate into a
  load factor (EWMA, so transient bursts don't thrash N);
- a controller picking the redundancy that maximises the closed-form
  average queryability (:func:`repro.core.theory.average_queryability`) at
  the estimated load, with hysteresis so N changes only when the predicted
  gain clears a margin.

Reports written under different N values remain queryable because queries
always read ``config.redundancy`` (the maximum) slots: writing fewer
copies only leaves stale data in the unwritten slots, which checksums
filter exactly like any other overwrite.

Kept on purpose: backs the Dynamic-N ablation in EXPERIMENTS.md
(``bench_ablation_dynamic_n.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core import theory
from repro.core.config import DartConfig


@dataclass
class LoadEstimator:
    """EWMA estimate of the live load factor alpha.

    Feed it distinct-key counts per control interval; it tracks
    keys-per-slot smoothed with weight ``alpha_weight``.
    """

    total_slots: int
    alpha_weight: float = 0.3
    estimate: float = 0.0
    intervals_observed: int = 0

    def __post_init__(self) -> None:
        if self.total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        if not 0 < self.alpha_weight <= 1:
            raise ValueError("alpha_weight must be in (0, 1]")

    def observe(self, distinct_keys: int) -> float:
        """Record one interval's distinct-key count; returns the estimate."""
        if distinct_keys < 0:
            raise ValueError("distinct_keys must be non-negative")
        sample = distinct_keys / self.total_slots
        if self.intervals_observed == 0:
            self.estimate = sample
        else:
            self.estimate = (
                self.alpha_weight * sample
                + (1 - self.alpha_weight) * self.estimate
            )
        self.intervals_observed += 1
        return self.estimate


class DynamicRedundancyController:
    """Chooses the write redundancy as load fluctuates.

    Parameters
    ----------
    config:
        The deployment config; ``config.redundancy`` caps the candidates
        because queries always read that many slots.
    candidates:
        Redundancy values the controller may select.
    hysteresis:
        Minimum predicted queryability gain (absolute) required to switch
        away from the current N.
    """

    def __init__(
        self,
        config: DartConfig,
        candidates: Optional[Sequence[int]] = None,
        hysteresis: float = 0.005,
    ) -> None:
        if candidates is None:
            candidates = tuple(range(1, config.redundancy + 1))
        candidates = tuple(sorted(set(candidates)))
        if not candidates:
            raise ValueError("no redundancy candidates supplied")
        if candidates[0] < 1 or candidates[-1] > config.redundancy:
            raise ValueError(
                f"candidates must lie in [1, {config.redundancy}]"
            )
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.config = config
        self.candidates = candidates
        self.hysteresis = hysteresis
        self.estimator = LoadEstimator(total_slots=config.total_slots)
        self.current = candidates[-1]  # start with maximum protection
        self.switches = 0

    def __repr__(self) -> str:
        return (
            f"DynamicRedundancyController(current={self.current}, "
            f"alpha={self.estimator.estimate:.3f})"
        )

    def recommend(self, load_factor: float) -> int:
        """The queryability-maximising N at a known load (stateless)."""
        return theory.optimal_redundancy(load_factor, self.candidates)

    def observe_interval(self, distinct_keys: int) -> int:
        """Feed one interval's key count; returns the N to use next.

        Switches only when the candidate's predicted average queryability
        beats the incumbent's by at least the hysteresis margin.
        """
        alpha = self.estimator.observe(distinct_keys)
        best = self.recommend(alpha)
        if best != self.current:
            gain = theory.average_queryability(alpha, best) - (
                theory.average_queryability(alpha, self.current)
            )
            if gain >= self.hysteresis:
                self.current = best
                self.switches += 1
        return self.current

    def predicted_queryability(self) -> float:
        """Predicted average queryability under the current N."""
        return float(theory.average_queryability(self.estimator.estimate, self.current))
