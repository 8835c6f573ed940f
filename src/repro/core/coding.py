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

from repro.core.policies import ReturnPolicy, resolve_matrix
from repro.core.simulator import SimulationResult, SimulationSpec, _Keys
from repro.hashing.checksum import CHECKSUM_FUNCTION_INDEX

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


def simulate_coded(coded: CodedSpec) -> SimulationResult:
    """Slot-level simulation with the chosen coding options.

    Mechanics mirror :func:`repro.core.simulator.simulate` (same folded
    keys, same slots, same fold), with two twists: the stored checksum of
    a slot is computed under the *owner's* copy index (relevant when
    per-location checksums are on), and under XOR masking a
    checksum-matching slot owned by a different key yields a slot-unique
    garbage value rather than the owner's identity.
    """
    spec = coded.base
    redundancy, num_keys = spec.redundancy, spec.num_keys
    keys = _Keys(spec, [(0, num_keys)])
    _checksums, slots = keys.resolve(0, num_keys)  # (N, K)
    indexes = (
        range(_PER_LOCATION_CHECKSUM_BASE, _PER_LOCATION_CHECKSUM_BASE + redundancy)
        if coded.per_location_checksums
        else [CHECKSUM_FUNCTION_INDEX] * redundancy
    )
    # Row n is copy n's checksum of every key.
    checksums = spec.config.hash_family().hash_folded_array(keys.lanes, indexes)
    checksums &= np.uint64((1 << spec.checksum_bits) - 1)

    # Writes happen in key order and, within a key, in copy order, so the
    # maximum of key * N + copy is a slot's final (owner, owner's copy).
    key_ids = np.arange(num_keys)
    writes = key_ids * redundancy + np.arange(redundancy)[:, None]
    combined = np.zeros(spec.num_slots, dtype=np.int64)
    np.maximum.at(combined, slots.ravel(), writes.ravel())
    owners, owner_copies = np.divmod(combined[slots], redundancy)
    # The reader compares its own copy-n checksum of the key.
    match = checksums[owner_copies, owners] == checksums

    if coded.xor_masking:
        # A matching slot whose owner differs decodes to garbage unique to
        # that (copy, key) cell -- wrong values can never agree.
        garbage = num_keys + writes
        owners = np.where(match & (owners != key_ids), garbage, owners)

    answered, pick = resolve_matrix(owners.T, match.T, spec.policy)
    correct = answered & (owners[pick, key_ids] == key_ids)
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
