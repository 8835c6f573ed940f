"""Query return policies.

Paper section 4 discusses several methods for turning the contents of a
key's N slots into a query answer, trading *empty returns* (no answer)
against *return errors* (a wrong answer):

- ``SINGLE_VALUE``: answer only if exactly one distinct value appears among
  the checksum-matching slots (the paper's introductory example).
- ``PLURALITY``: answer with the most frequent matching value; ties yield
  an empty return (the paper's suggested default, with 32-bit checksums).
- ``CONSENSUS_2``: answer only if some matching value appears at least
  twice -- more conservative, fewer errors, more empties; the paper notes
  this can be chosen per query without changing anything else.
- ``FIRST_MATCH``: answer with the first matching slot -- the cheapest and
  most error-prone; included as the ablation baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np


class ReturnPolicy(Enum):
    """How the N slot reads are resolved into a query answer."""

    SINGLE_VALUE = "single_value"
    PLURALITY = "plurality"
    CONSENSUS_2 = "consensus_2"
    FIRST_MATCH = "first_match"

    @property
    def agreement(self) -> int:
        """Matching copies a value with no rival needs to answer: 2 for consensus, else 1."""
        return 2 if self is ReturnPolicy.CONSENSUS_2 else 1


class QueryOutcome(Enum):
    """Result classes from paper section 4."""

    #: A value was returned (may still be a *return error* -- the store
    #: cannot tell; only evaluation harnesses with ground truth can).
    ANSWERED = "answered"
    #: No answer could be returned (all copies overwritten, or ambiguity).
    EMPTY = "empty"


@dataclass
class QueryResult:
    """What a DART query returns to the operator."""

    outcome: QueryOutcome
    value: Optional[bytes] = None
    #: Slot values whose stored checksum matched the queried key.
    matching_values: List[bytes] = field(default_factory=list)
    #: How many of the N slots were read (always N in the current design).
    slots_read: int = 0
    #: Number of slots whose checksum matched.
    matches: int = 0

    @property
    def answered(self) -> bool:
        """Whether a value was returned."""
        return self.outcome is QueryOutcome.ANSWERED


def resolve(
    matching_values: Sequence[bytes],
    policy: ReturnPolicy,
    slots_read: int,
) -> QueryResult:
    """Apply a return policy to the checksum-matching slot values.

    ``matching_values`` are the raw value fields of the slots whose stored
    checksum equals the queried key's checksum, in slot order.
    """
    base = QueryResult(
        outcome=QueryOutcome.EMPTY,
        matching_values=list(matching_values),
        slots_read=slots_read,
        matches=len(matching_values),
    )
    if not matching_values:
        return base

    counts = Counter(matching_values)

    if len(counts) == 1 or policy is ReturnPolicy.FIRST_MATCH:
        # The matching copies agree (or only the first counts): the
        # policy's agreement threshold alone decides.
        if len(matching_values) >= policy.agreement:
            base.outcome = QueryOutcome.ANSWERED
            base.value = matching_values[0]
        return base

    if policy is ReturnPolicy.SINGLE_VALUE:
        return base

    ranked: List[Tuple[bytes, int]] = counts.most_common()

    if policy is ReturnPolicy.PLURALITY:
        if ranked[0][1] > ranked[1][1]:
            base.outcome = QueryOutcome.ANSWERED
            base.value = ranked[0][0]
        return base

    if policy is ReturnPolicy.CONSENSUS_2:
        qualified = [value for value, count in ranked if count >= policy.agreement]
        if len(qualified) == 1:
            base.outcome = QueryOutcome.ANSWERED
            base.value = qualified[0]
        elif len(qualified) > 1 and ranked[0][1] > ranked[1][1]:
            # Multiple values reached the threshold; answer only on a
            # strict plurality among them.
            base.outcome = QueryOutcome.ANSWERED
            base.value = ranked[0][0]
        return base

    raise ValueError(f"unknown return policy: {policy!r}")


def fold_slots(
    codec,
    raws: Sequence[bytes],
    checksum: int,
    policy: ReturnPolicy,
) -> QueryResult:
    """Steps 3-4 of a DART query: checksum-filter raw slots, then resolve.

    ``raws`` are the raw bytes of the key's slots in copy order (callers
    drop lost READs before calling), ``codec`` the deployment's
    :class:`~repro.mem.slots.SlotCodec` and ``checksum`` the queried
    key's.  The one fold behind the local client, the one-sided remote
    client and the query front end, so their answers cannot drift apart.
    """
    decode = codec.decode
    matching: List[bytes] = []
    for raw in raws:
        stored_checksum, value = decode(raw)
        if stored_checksum == checksum:
            matching.append(value)
    return resolve(matching, policy, slots_read=len(raws))


def resolve_matrix(
    codes: np.ndarray, valid: np.ndarray, policy: ReturnPolicy
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`resolve` for every row of a ``(K, N)`` matrix of copies at once.

    ``codes`` are int64 equality codes (two copies hold the same value iff
    their codes are equal) and ``valid`` marks the checksum-matching copies.
    Returns ``(answered, pick)``: whether each row answers, and the index of
    a copy holding its answer.  One ``(N, K)`` pass per copy and no
    ``(K, N, N)`` temporary, so simulator chunks stay bounded.
    """
    if policy is ReturnPolicy.FIRST_MATCH:
        return valid.any(axis=1), valid.argmax(axis=1)
    columns, matching = codes.T, valid.T
    # counts[i, k]: row k's matching copies that share copy i's value.
    counts = matching * sum(
        (columns == other) & matched for other, matched in zip(columns, matching)
    )
    pick = counts.argmax(axis=0)
    top = counts.max(axis=0)
    second = np.where(columns != codes[np.arange(len(codes)), pick], counts, 0).max(axis=0)
    if policy is ReturnPolicy.SINGLE_VALUE:
        return (top > 0) & (second == 0), pick
    # Plurality and consensus: enough copies, and no rival as good.
    needed = policy.agreement
    return (top >= needed) & ((second < needed) | (top > second)), pick


def fold_matrix(
    codec, payloads: np.ndarray, checksums: np.ndarray, policy: ReturnPolicy
) -> Tuple[List[Optional[bytes]], List[bool]]:
    """:func:`fold_slots`'s ``(value, answered)`` for every key of
    ``payloads`` (``uint8[keys, N, slot_bytes]``, no READ lost) at once.

    Each copy's value bytes are coded by the index of the first copy
    holding the same bytes, and :func:`resolve_matrix` decides.
    """
    layout = codec.layout
    width = layout.checksum_bytes
    keys, copies, _slot_bytes = payloads.shape
    # The big-endian checksum field, right-aligned in a word for one view.
    words = np.zeros((keys, copies, 8), dtype=np.uint8)
    words[..., 8 - width :] = payloads[..., :width]
    stored = words.view(">u8")[..., 0] & np.uint64((1 << layout.checksum_bits) - 1)
    values = payloads[..., width:]
    codes = (values[:, :, None] == values[:, None]).all(axis=3).argmax(axis=2)
    answered, pick = resolve_matrix(codes, stored == checksums[:, None], policy)
    # One bytes object for every chosen value, sliced per key: no row views.
    chosen = values[np.arange(keys), pick].tobytes()
    size = values.shape[2]
    answered = answered.tolist()
    return [
        chosen[at : at + size] if ok else None
        for at, ok in zip(range(0, len(chosen), size), answered)
    ], answered
