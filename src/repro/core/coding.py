"""Coding-theory hardening of the DART slot format (paper section 4).

"Additional ideas from coding theory, including using different checksums
for each location or XORing each value with a pseudorandom value, could
also be applied."  This module implements both ideas and quantifies what
they buy:

**Per-location checksums.**  With a single checksum function, a colliding
key k' whose checksum equals the query key's fakes a match *consistently*:
every slot k' overwrote presents the same checksum and the same (wrong)
value, so even a plurality vote can be outvoted.  Giving each copy index
its own checksum function makes collisions independent per slot: k' must
win ``b`` fresh bits at every location, which collapses the consistent-
wrong-answer mode.

**XOR value masking.**  Each writer XORs its value with a pseudorandom
pad derived from the key; readers unmask with the *query* key's pad.  A
slot occupied by a different key then decodes to key-dependent garbage --
two slots holding the same wrong key no longer agree, so plurality cannot
be fooled by duplicated wrong values, at the cost of those errors becoming
single-slot garbage answers (caught by consensus or downstream sanity
checks, not by the vote).

Both variants cost nothing at the switch beyond selecting a hash index,
and nothing in slot space.  The ablation benchmark measures their error
rates against the baseline at adversarially small checksums.

Kept on purpose: backs the coding-theory hardening ablation in
EXPERIMENTS.md (``bench_ablation_coding.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policies import ReturnPolicy
from repro.core.simulator import (
    SimulationResult,
    SimulationSpec,
    _resolve_vectorised,
    _SENTINEL,
    _slot_addresses,
)
from repro.hashing.checksum import CHECKSUM_FUNCTION_INDEX
from repro.hashing.hash_family import HashFamily

#: Hash indexes for per-location checksum functions start here; they must
#: not collide with slot addressing [0, N), the collector index, or the
#: shared checksum index.
_PER_LOCATION_CHECKSUM_BASE = CHECKSUM_FUNCTION_INDEX + 1


@dataclass(frozen=True)
class CodedSpec:
    """A simulation spec plus the coding options of section 4."""

    base: SimulationSpec
    per_location_checksums: bool = False
    xor_masking: bool = False

    @property
    def label(self) -> str:
        """Human-readable name of the enabled coding options."""
        parts = []
        if self.per_location_checksums:
            parts.append("per-location checksums")
        if self.xor_masking:
            parts.append("XOR masking")
        return " + ".join(parts) if parts else "baseline"


def _checksum_matrix(spec: SimulationSpec, keys: np.ndarray, per_location: bool) -> np.ndarray:
    """(K, N) checksums: column n is copy n's checksum of each key."""
    family = HashFamily(seed=spec.seed)
    mask = np.uint64((1 << spec.checksum_bits) - 1)
    columns = []
    for copy in range(spec.redundancy):
        index = (
            _PER_LOCATION_CHECKSUM_BASE + copy
            if per_location
            else CHECKSUM_FUNCTION_INDEX
        )
        columns.append((family.hash_array(keys, index) & mask).astype(np.int64))
    return np.stack(columns, axis=1)


def simulate_coded(coded: CodedSpec) -> SimulationResult:
    """Slot-level simulation with the chosen coding options.

    Mechanics mirror :func:`repro.core.simulator.simulate`, with two
    twists: the stored checksum of a slot is computed under the *owner's*
    copy index (relevant when per-location checksums are on), and under
    XOR masking a checksum-matching slot owned by a different key yields a
    slot-unique garbage value rather than the owner's identity.
    """
    spec = coded.base
    keys = np.arange(spec.num_keys, dtype=np.uint64)
    addresses = _slot_addresses(spec, keys)
    checksums = _checksum_matrix(spec, keys, coded.per_location_checksums)

    # Track (owner, owner's copy index) per slot: writes happen in key
    # order and, within a key, in copy order, so the maximum of
    # key * N + copy is the final writer.
    redundancy = spec.redundancy
    combined = np.full(spec.num_slots, -1, dtype=np.int64)
    key_ids = np.repeat(np.arange(spec.num_keys, dtype=np.int64), redundancy)
    copy_ids = np.tile(np.arange(redundancy, dtype=np.int64), spec.num_keys)
    np.maximum.at(combined, addresses.ravel(), key_ids * redundancy + copy_ids)

    owner = np.where(combined >= 0, combined // redundancy, -1)
    owner_copy = np.where(combined >= 0, combined % redundancy, 0)

    owners_read = owner[addresses]  # (K, N)
    owner_copies_read = owner_copy[addresses]
    written = owners_read >= 0

    safe_owner = np.clip(owners_read, 0, None)
    stored_checksums = np.where(
        written,
        checksums[safe_owner, owner_copies_read],
        -1,
    )
    # The reader compares against its own copy-n checksum of the key.
    reader_checksums = checksums  # (K, N), column n read at copy n
    match = written & (stored_checksums == reader_checksums)

    matched_values = np.where(match, owners_read, _SENTINEL)

    if coded.xor_masking:
        # A matching slot whose owner differs decodes to garbage unique to
        # that (row, column) cell -- wrong values can never agree.
        rows, cols = np.indices(matched_values.shape)
        key_column = np.arange(spec.num_keys, dtype=np.int64)[:, None]
        garbage = spec.num_keys + rows * spec.redundancy + cols
        wrong_owner = match & (matched_values != key_column)
        matched_values = np.where(wrong_owner, garbage, matched_values)

    answered, value = _resolve_vectorised(matched_values, spec.policy)
    correct = answered & (value == np.arange(spec.num_keys, dtype=np.int64))
    return SimulationResult(spec=spec, correct=correct, answered=answered)


def coding_comparison_rows(
    *,
    load: float = 2.0,
    checksum_bits: int = 8,
    num_slots: int = 1 << 17,
    redundancy: int = 2,
    policy: ReturnPolicy = ReturnPolicy.PLURALITY,
    seed: int = 0,
) -> list:
    """Error/success rates for all four coding combinations."""
    base = SimulationSpec(
        num_keys=max(1, int(load * num_slots)),
        num_slots=num_slots,
        redundancy=redundancy,
        checksum_bits=checksum_bits,
        policy=policy,
        seed=seed,
    )
    rows = []
    for per_location in (False, True):
        for masking in (False, True):
            coded = CodedSpec(
                base=base,
                per_location_checksums=per_location,
                xor_masking=masking,
            )
            result = simulate_coded(coded)
            rows.append(
                {
                    "variant": coded.label,
                    "load_factor": load,
                    "checksum_bits": checksum_bits,
                    "success_rate": result.success_rate,
                    "empty_rate": result.empty_rate,
                    "error_rate": result.error_rate,
                }
            )
    return rows
