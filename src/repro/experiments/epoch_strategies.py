"""Epoch strategies for historical queryability (paper section 5.2.1).

"A solution can be to utilize DRAM for temporary epoch-based storage of
telemetry data, combined with periodical transfer of data into a larger
(and much slower) persistent storage where historical queries can be
answered.  We leave the design details as future work."

This experiment works those details out and measures the trade:

- **continuous**: one region of M slots overwritten forever.  Queryability
  decays smoothly with age (Figure 4) and never reaches zero, but old data
  keeps degrading and nothing is ever durable.
- **rotate+archive**: the same M slots split into double buffers of M/2;
  every E keys the live buffer is archived (snapshot to slow storage) and
  cleared.  In-DRAM queryability exists only for the last two epochs, but
  each archived epoch preserves whatever survived within it *forever*:
  a key's retrievability stops depending on how much traffic arrived
  after its epoch.

The crossover: continuous wins for freshly written keys at light epoch
loads; rotate+archive wins for everything older than ~one epoch, because
archived survival (intra-epoch aging only) beats unbounded decay.

Kept on purpose: backs the section-5.2.1 epoch-persistence exhibit in
EXPERIMENTS.md (``bench_epoch_strategies.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core import theory
from repro.core.simulator import SimulationSpec, simulate


def continuous_age_curve(
    num_keys: int, num_slots: int, buckets: int, seed: int = 0
) -> np.ndarray:
    """Per-age-bucket success for the continuous strategy (oldest first)."""
    spec = SimulationSpec(num_keys=num_keys, num_slots=num_slots, seed=seed)
    return simulate(spec).success_by_age(buckets)


def rotated_age_curve(
    num_keys: int,
    num_slots: int,
    epoch_keys: int,
    buckets: int,
    with_archive: bool = True,
    seed: int = 0,
) -> np.ndarray:
    """Per-age-bucket success for the rotate+archive strategy.

    The fleet's M slots are double-buffered (M/2 live).  Every epoch is
    statistically identical, so one epoch is simulated (``epoch_keys``
    keys into M/2 slots) and its per-position survival curve is assembled
    across the history:

    - keys in the *current* (possibly partial) epoch: intra-epoch aging;
    - keys in the *previous* epoch: the buffer is untouched since its
      rotation, so their survival froze at end-of-epoch;
    - older keys: cleared from DRAM; retrievable only from the archive,
      where their end-of-epoch survival was snapshotted (0 if no archive).
    """
    if epoch_keys < 1:
        raise ValueError("epoch_keys must be >= 1")
    live_slots = max(1, num_slots // 2)
    spec = SimulationSpec(num_keys=epoch_keys, num_slots=live_slots, seed=seed)
    epoch_result = simulate(spec)
    # survival[p]: probability a key written at position p of an epoch is
    # retrievable at the *end* of that epoch.
    survival = epoch_result.correct.astype(np.float64)

    success = np.empty(num_keys, dtype=np.float64)
    for start in range(0, num_keys, epoch_keys):
        end = min(start + epoch_keys, num_keys)
        length = end - start
        is_current = end == num_keys and length < epoch_keys
        if is_current:
            # Partial current epoch: keys aged only by the keys after them
            # within the epoch so far.  Approximate with the closed form.
            positions = np.arange(length)
            alpha_after = (length - 1 - positions) / live_slots
            success[start:end] = theory.queryability(alpha_after, spec.redundancy)
        else:
            frozen = survival[:length]
            if end <= num_keys - 2 * epoch_keys and not with_archive:
                success[start:end] = 0.0  # cleared, no archive
            else:
                # Previous epoch in DRAM, or any archived epoch: survival
                # froze at rotation.
                success[start:end] = frozen
    edges = np.linspace(0, num_keys, buckets + 1).astype(np.int64)
    return np.asarray(
        [
            float(success[a:b].mean()) if b > a else float("nan")
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )


def strategy_rows(
    *,
    num_keys: int = 400_000,
    num_slots: int = 1 << 17,
    epoch_keys: int = 50_000,
    buckets: int = 8,
    seed: int = 0,
) -> List[dict]:
    """Side-by-side age curves for the three strategies."""
    continuous = continuous_age_curve(num_keys, num_slots, buckets, seed)
    rotated = rotated_age_curve(
        num_keys, num_slots, epoch_keys, buckets, with_archive=True, seed=seed
    )
    rotated_no_archive = rotated_age_curve(
        num_keys, num_slots, epoch_keys, buckets, with_archive=False, seed=seed
    )
    rows = []
    for bucket in range(buckets):
        rows.append(
            {
                "age_bucket": bucket,  # 0 = oldest
                "continuous": float(continuous[bucket]),
                "rotate_archive": float(rotated[bucket]),
                "rotate_no_archive": float(rotated_no_archive[bucket]),
            }
        )
    rows.append(
        {
            "age_bucket": "MEAN",
            "continuous": float(np.nanmean(continuous)),
            "rotate_archive": float(np.nanmean(rotated)),
            "rotate_no_archive": float(np.nanmean(rotated_no_archive)),
        }
    )
    return rows
