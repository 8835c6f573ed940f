"""Vectorised slot-level simulator for DART's statistical experiments.

The paper's evaluation (section 5) is driven by "in-depth simulations" of
the DART data structure with up to 100 million keys.  A per-key Python loop
cannot reach those scales, so this module simulates exactly what the paper
simulates -- slot overwrites plus checksum collisions -- with numpy, on the
stack's own addressing and read-side fold:

1. keys 0..K-1 are folded once (:func:`~repro.hashing.hash_family.fold_keys`)
   and written in order, each placing N copies at the slots
   :meth:`~repro.core.addressing.DartAddressing.resolve_folded` gives it in
   a one-collector deployment (last write wins per slot);
2. each key is then queried: its N slots are read, slots whose stored
   checksum mismatches are discarded, and
   :func:`~repro.core.policies.resolve_matrix` applies the return policy;
3. per-key outcomes (correct / empty / error) are reported, bucketed by
   insertion age on demand.

At loss 0 a key's outcome here is the answer a one-collector
:class:`~repro.collector.store.DartStore` holding ``put_many`` of
``(k, k.to_bytes(8, "big"))`` gives to ``get(k)`` (property-tested).

Success probabilities depend only on the load factor ``K/M`` and N, not on
absolute scale, so benches default to a few million keys and remain
shape-faithful to the paper's 100 M runs (EXPERIMENTS.md quantifies this).

The module also simulates the WRITE+Compare&Swap strategy of paper
section 7 for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy, resolve_matrix
from repro.hashing.hash_family import fold_keys


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one slot-level simulation run."""

    num_keys: int
    num_slots: int
    redundancy: int = 2
    checksum_bits: int = 32
    seed: int = 0
    policy: ReturnPolicy = ReturnPolicy.PLURALITY

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {self.num_keys}")
        if self.num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {self.num_slots}")
        if self.redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {self.redundancy}")
        if not 1 <= self.checksum_bits <= 62:
            raise ValueError(
                f"checksum_bits must be in [1, 62], got {self.checksum_bits}"
            )

    @property
    def load_factor(self) -> float:
        """alpha -- distinct keys per slot."""
        return self.num_keys / self.num_slots

    @property
    def config(self) -> DartConfig:
        """The one-collector deployment whose addressing the run uses."""
        return DartConfig(
            slots_per_collector=self.num_slots,
            redundancy=self.redundancy,
            num_collectors=1,
            checksum_bits=self.checksum_bits,
            seed=self.seed,
        )


@dataclass
class SimulationResult:
    """Per-key query outcomes of one simulation run.

    Keys are indexed by insertion order: index 0 is the *oldest* report
    (most keys written after it), index K-1 the freshest.
    """

    spec: SimulationSpec
    correct: np.ndarray  # bool[K] -- answered with the key's own value
    answered: np.ndarray  # bool[K] -- any value returned

    @property
    def num_keys(self) -> int:
        """Number of keys simulated."""
        return self.spec.num_keys

    @property
    def error(self) -> np.ndarray:
        """Answered, but with a wrong value (the paper's *return error*)."""
        return self.answered & ~self.correct

    @property
    def empty(self) -> np.ndarray:
        """No value returned (the paper's *empty return*)."""
        return ~self.answered

    @property
    def success_rate(self) -> float:
        """Fraction of keys whose query returned the correct value."""
        return float(self.correct.mean())

    @property
    def empty_rate(self) -> float:
        """Fraction of keys whose query returned nothing."""
        return float(self.empty.mean())

    @property
    def error_rate(self) -> float:
        """Fraction of keys whose query returned a wrong value."""
        return float(self.error.mean())

    def success_by_age(self, buckets: int = 10) -> np.ndarray:
        """Success rate per age bucket, oldest bucket first (Figure 4).

        Bucket 0 holds the oldest ``K/buckets`` reports.
        """
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        edges = np.linspace(0, self.num_keys, buckets + 1).astype(np.int64)
        rates = []
        for start, end in zip(edges[:-1], edges[1:]):
            if end > start:
                rates.append(float(self.correct[start:end].mean()))
            else:
                rates.append(float("nan"))
        return np.asarray(rates)

    def oldest_fraction_success(self, fraction: float = 0.01) -> float:
        """Success rate among the oldest ``fraction`` of reports."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        count = max(1, int(self.num_keys * fraction))
        return float(self.correct[:count].mean())


def key_lanes(start: int, end: int) -> np.ndarray:
    """The lanes of the simulated keys ``start..end-1``: each the
    :func:`~repro.hashing.hash_family.fold_key` of the integer key."""
    return fold_keys(np.arange(start, end, dtype=np.uint64))


class _Keys:
    """Keys ``0..K-1`` of a run, folded once, resolved a span at a time.

    Each span is folded on its own, so fold temporaries stay span-sized.
    """

    def __init__(self, spec: SimulationSpec, spans) -> None:
        self.spec = spec
        self.addressing = DartAddressing(spec.config)
        self.lanes = np.empty(spec.num_keys, dtype=np.uint64)
        for start, end in spans:
            self.lanes[start:end] = key_lanes(start, end)

    def resolve(self, start: int, end: int):
        """``(checksums, slots[N, end - start])`` of keys ``start..end-1``."""
        _collectors, checksums, slots = self.addressing.resolve_folded(
            self.lanes[start:end]
        )
        return checksums, slots

    def query(self, owner: np.ndarray, spans) -> SimulationResult:
        """Read every key's N slots against the final slot ``owner``s.

        A slot stores its owner's checksum; every key wrote its own slots,
        so every slot read has an owner.
        """
        spec = self.spec
        checksum = spec.config.key_checksum()
        correct = np.empty(spec.num_keys, dtype=bool)
        answered = np.empty(spec.num_keys, dtype=bool)
        for start, end in spans:
            checksums, slots = self.resolve(start, end)
            owners = owner[slots].T
            stored = checksum.compute_folded_array(self.lanes[owners])
            hit, pick = resolve_matrix(owners, stored == checksums[:, None], spec.policy)
            answered[start:end] = hit
            correct[start:end] = hit & (
                owners[np.arange(end - start), pick] == np.arange(start, end)
            )
        return SimulationResult(spec=spec, correct=correct, answered=answered)


def simulate(spec: SimulationSpec, chunk_size: Optional[int] = None) -> SimulationResult:
    """Run one slot-level simulation and evaluate every key's query.

    ``chunk_size`` bounds peak memory for paper-scale runs (10^8 keys):
    writes and queries are streamed in chunks of that many keys.  Chunking
    is exact, not approximate -- the final owner of a slot is the maximum
    key id that targeted it, which commutes with chunking -- so results
    are identical for any chunk size (tested).
    """
    chunk = spec.num_keys if chunk_size is None else chunk_size
    if chunk < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    spans = [
        (start, min(start + chunk, spec.num_keys))
        for start in range(0, spec.num_keys, chunk)
    ]
    keys = _Keys(spec, spans)
    # Last write wins: keys are written in id order, so a slot's final
    # owner is the largest key id that targeted it.
    owner = np.zeros(spec.num_slots, dtype=np.int64)
    for start, end in spans:
        _checksums, slots = keys.resolve(start, end)
        np.maximum.at(owner, slots.ravel(), np.tile(np.arange(start, end), spec.redundancy))
    return keys.query(owner, spans)


def simulate_cas_strategy(spec: SimulationSpec) -> SimulationResult:
    """Simulate the WRITE + Compare&Swap strategy of paper section 7.

    With N=2: copy 0 is a plain RDMA WRITE (last writer wins); copy 1 is a
    Compare&Swap against an empty slot (first writer wins, and any plain
    WRITE landing on the same slot overwrites it).  The final content of a
    slot is therefore the last WRITE that targeted it, or -- if no WRITE
    ever did -- the first CAS.
    """
    if spec.redundancy != 2:
        raise ValueError("the CAS strategy is defined for redundancy == 2")
    spans = [(0, spec.num_keys)]
    keys = _Keys(spec, spans)
    _checksums, (write, cas) = keys.resolve(0, spec.num_keys)
    key_ids = np.arange(spec.num_keys)

    last_write = np.full(spec.num_slots, -1, dtype=np.int64)
    np.maximum.at(last_write, write, key_ids)
    first_cas = np.full(spec.num_slots, spec.num_keys, dtype=np.int64)
    np.minimum.at(first_cas, cas, key_ids)

    owner = np.where(last_write >= 0, last_write, first_cas)
    return keys.query(owner, spans)
