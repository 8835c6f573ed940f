"""Vectorised slot-level simulator for DART's statistical experiments.

The paper's evaluation (section 5) is driven by "in-depth simulations" of
the DART data structure with up to 100 million keys.  A per-key Python loop
cannot reach those scales, so this module simulates exactly what the paper
simulates -- slot overwrites plus checksum collisions -- with numpy:

1. keys 0..K-1 are written in order, each placing N copies at its hashed
   slot addresses (last write wins per slot);
2. each key is then queried: its N slots are read, slots whose stored
   checksum mismatches are discarded, and a return policy resolves the
   remainder;
3. per-key outcomes (correct / empty / error) are reported, bucketed by
   insertion age on demand.

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

from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy
from repro.hashing.checksum import KeyChecksum
from repro.hashing.hash_family import HashFamily

#: Marks "no matching value" in tally matrices.
_SENTINEL = np.int64(2**62)
#: Marks "slot never written" in owner arrays.
_NO_OWNER = np.int64(-1)


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

    @classmethod
    def from_config(
        cls, config: DartConfig, num_keys: int, **overrides
    ) -> "SimulationSpec":
        """Derive a spec from a deployment config."""
        params = dict(
            num_keys=num_keys,
            num_slots=config.total_slots,
            redundancy=config.redundancy,
            checksum_bits=config.checksum_bits,
            seed=config.seed,
        )
        params.update(overrides)
        return cls(**params)


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


def _slot_addresses(spec: SimulationSpec, keys: np.ndarray) -> np.ndarray:
    """(K, N) matrix of slot indexes, one column per copy index."""
    family = HashFamily(seed=spec.seed)
    columns = [
        family.hash_array_mod(keys, n, spec.num_slots).astype(np.int64)
        for n in range(spec.redundancy)
    ]
    return np.stack(columns, axis=1)


def _checksums(spec: SimulationSpec, keys: np.ndarray) -> np.ndarray:
    checksum = KeyChecksum(bits=spec.checksum_bits, family=HashFamily(seed=spec.seed))
    return checksum.compute_array(keys).astype(np.int64)


def _tally_top_two(values: np.ndarray) -> tuple:
    """Top-2 value counts per row of a small-width matrix.

    ``values`` is (K, N) with ``_SENTINEL`` marking non-matches.  Returns
    ``(top_value, top_count, second_count, distinct)`` arrays where
    ``second_count`` is the count of the best value distinct from the top.
    Complexity O(K * N^2); N is at most ~8 in practice.
    """
    rows, width = values.shape
    valid = values != _SENTINEL
    counts = np.zeros((rows, width), dtype=np.int64)
    for i in range(width):
        for j in range(width):
            counts[:, i] += (values[:, i] == values[:, j]).astype(np.int64)
        counts[:, i] *= valid[:, i].astype(np.int64)

    top_idx = counts.argmax(axis=1)
    row_index = np.arange(rows)
    top_count = counts[row_index, top_idx]
    top_value = values[row_index, top_idx]

    not_top = values != top_value[:, None]
    second_count = np.where(not_top, counts, 0).max(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        contributions = np.where(valid & (counts > 0), 1.0 / counts, 0.0)
    distinct = np.rint(contributions.sum(axis=1)).astype(np.int64)
    return top_value, top_count, second_count, distinct


def _resolve_vectorised(
    matched_values: np.ndarray, policy: ReturnPolicy
) -> tuple:
    """Vectorised twin of :func:`repro.core.policies.resolve`.

    ``matched_values`` is (K, N) of candidate values with ``_SENTINEL``
    for checksum mismatches.  Returns ``(answered, value)`` arrays.
    """
    if policy is ReturnPolicy.FIRST_MATCH:
        valid = matched_values != _SENTINEL
        answered = valid.any(axis=1)
        first = valid.argmax(axis=1)
        value = matched_values[np.arange(matched_values.shape[0]), first]
        return answered, value

    top_value, top_count, second_count, distinct = _tally_top_two(matched_values)

    if policy is ReturnPolicy.SINGLE_VALUE:
        answered = distinct == 1
    elif policy is ReturnPolicy.PLURALITY:
        answered = (top_count > 0) & (top_count > second_count)
    elif policy is ReturnPolicy.CONSENSUS_2:
        answered = (top_count >= 2) & (
            (second_count < 2) | (top_count > second_count)
        )
    else:
        raise ValueError(f"unknown return policy: {policy!r}")
    return answered, top_value


def simulate(spec: SimulationSpec, chunk_size: Optional[int] = None) -> SimulationResult:
    """Run one slot-level simulation and evaluate every key's query.

    ``chunk_size`` bounds peak memory for paper-scale runs (10^8 keys):
    writes and queries are streamed in chunks of that many keys.  Chunking
    is exact, not approximate -- the final owner of a slot is the maximum
    key id that targeted it, which commutes with chunking -- so results
    are identical for any chunk size (tested).
    """
    if chunk_size is None or chunk_size >= spec.num_keys:
        keys = np.arange(spec.num_keys, dtype=np.uint64)
        addresses = _slot_addresses(spec, keys)
        checksums = _checksums(spec, keys)

        # Last write wins: the slot's final owner is the largest key id
        # that targeted it (keys are written in id order).
        owner = np.full(spec.num_slots, _NO_OWNER, dtype=np.int64)
        key_ids = np.repeat(
            np.arange(spec.num_keys, dtype=np.int64), spec.redundancy
        )
        np.maximum.at(owner, addresses.ravel(), key_ids)
        return _evaluate(spec, addresses, checksums, owner)
    return _simulate_chunked(spec, chunk_size)


def _simulate_chunked(spec: SimulationSpec, chunk_size: int) -> SimulationResult:
    """Memory-bounded twin of :func:`simulate` (identical results)."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    owner = np.full(spec.num_slots, _NO_OWNER, dtype=np.int64)
    # Pass 1: stream the writes to build the final owner array.
    for start in range(0, spec.num_keys, chunk_size):
        end = min(start + chunk_size, spec.num_keys)
        keys = np.arange(start, end, dtype=np.uint64)
        addresses = _slot_addresses(spec, keys)
        key_ids = np.repeat(np.arange(start, end, dtype=np.int64), spec.redundancy)
        np.maximum.at(owner, addresses.ravel(), key_ids)

    # All checksums are needed to decode arbitrary owners; at 10^8 keys
    # this is one int64 column (~0.8 GB) -- the binding constraint, noted
    # in EXPERIMENTS.md.
    all_checksums = _checksums(spec, np.arange(spec.num_keys, dtype=np.uint64))

    # Pass 2: stream the queries.
    correct = np.empty(spec.num_keys, dtype=bool)
    answered = np.empty(spec.num_keys, dtype=bool)
    for start in range(0, spec.num_keys, chunk_size):
        end = min(start + chunk_size, spec.num_keys)
        keys = np.arange(start, end, dtype=np.uint64)
        addresses = _slot_addresses(spec, keys)
        owners_read = owner[addresses]
        written = owners_read >= 0
        owner_checksums = np.where(
            written, all_checksums[np.clip(owners_read, 0, None)], -1
        )
        match = written & (owner_checksums == all_checksums[start:end, None])
        matched_values = np.where(match, owners_read, _SENTINEL)
        chunk_answered, value = _resolve_vectorised(matched_values, spec.policy)
        answered[start:end] = chunk_answered
        correct[start:end] = chunk_answered & (
            value == np.arange(start, end, dtype=np.int64)
        )
    return SimulationResult(spec=spec, correct=correct, answered=answered)


def _evaluate(
    spec: SimulationSpec,
    addresses: np.ndarray,
    checksums: np.ndarray,
    owner: np.ndarray,
) -> SimulationResult:
    """Query every key against the final slot owners."""
    owners_read = owner[addresses]  # (K, N) key id stored in each read slot
    written = owners_read >= 0
    owner_checksums = np.where(written, checksums[np.clip(owners_read, 0, None)], -1)
    match = written & (owner_checksums == checksums[:, None])

    matched_values = np.where(match, owners_read, _SENTINEL)
    answered, value = _resolve_vectorised(matched_values, spec.policy)
    key_ids = np.arange(spec.num_keys, dtype=np.int64)
    correct = answered & (value == key_ids)
    return SimulationResult(spec=spec, correct=correct, answered=answered)


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
    keys = np.arange(spec.num_keys, dtype=np.uint64)
    addresses = _slot_addresses(spec, keys)
    checksums = _checksums(spec, keys)
    key_ids = np.arange(spec.num_keys, dtype=np.int64)

    last_write = np.full(spec.num_slots, _NO_OWNER, dtype=np.int64)
    np.maximum.at(last_write, addresses[:, 0], key_ids)

    first_cas = np.full(spec.num_slots, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_cas, addresses[:, 1], key_ids)

    owner = np.where(
        last_write >= 0,
        last_write,
        np.where(first_cas != np.iinfo(np.int64).max, first_cas, _NO_OWNER),
    )
    return _evaluate(spec, addresses, checksums, owner)


def sweep_load_factors(
    load_factors, redundancy: int, *, num_slots: int = 1 << 20, strategy: str = "write"
) -> list:
    """Average success rate at each load factor (Figure 3 series).

    ``strategy`` is ``"write"`` (N plain writes) or ``"cas"`` (section 7).
    Returns ``[(alpha, success_rate)]``.
    """
    if strategy not in ("write", "cas"):
        raise ValueError(f"unknown strategy {strategy!r}")
    results = []
    for alpha in load_factors:
        num_keys = max(1, int(round(alpha * num_slots)))
        spec = SimulationSpec(num_keys=num_keys, num_slots=num_slots, redundancy=redundancy)
        run = simulate(spec) if strategy == "write" else simulate_cas_strategy(spec)
        results.append((float(alpha), run.success_rate))
    return results
