"""b-bit key checksums stored alongside telemetry values.

To keep slots small, DART does not store the key itself: each slot holds a
``b``-bit checksum of the key plus the value (paper section 3.1).  At query
time, slots whose stored checksum does not match the queried key's checksum
are known to have been overwritten by a different key and are discarded.

The paper's analysis (section 4) assumes the checksum is uniformly
distributed over ``2**b`` values for any key; we derive it from the same
global hash family so the assumption holds by construction, and the
test-suite verifies uniformity empirically.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.hash_family import HashFamily, Key

#: Hash-family member index reserved for checksums.  Slot addressing uses
#: indexes [0, N) and collector selection uses its own reserved index, so the
#: checksum must live far away from both to stay independent of them.
CHECKSUM_FUNCTION_INDEX = 0x7FFFFFFF


class KeyChecksum:
    """Computes the ``b``-bit checksum of telemetry keys.

    Parameters
    ----------
    bits:
        Checksum width ``b``.  The paper evaluates 8, 16 and 32 bits
        (Figure 5) and recommends 32 as the default.
    family:
        The global hash family; defaults to seed 0.
    """

    def __init__(self, bits: int = 32, family: HashFamily | None = None) -> None:
        if not 1 <= bits <= 64:
            raise ValueError(f"checksum width must be in [1, 64], got {bits}")
        self.bits = bits
        self.family = family if family is not None else HashFamily()
        self._mask = (1 << bits) - 1

    def __repr__(self) -> str:
        return f"KeyChecksum(bits={self.bits}, family={self.family!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KeyChecksum)
            and other.bits == self.bits
            and other.family == self.family
        )

    def __hash__(self) -> int:
        return hash(("KeyChecksum", self.bits, self.family))

    @property
    def nbytes(self) -> int:
        """Bytes needed to store one checksum in a slot."""
        return (self.bits + 7) // 8

    def compute(self, key: Key) -> int:
        """The ``b``-bit checksum of ``key``."""
        return self.family.hash_key(key, CHECKSUM_FUNCTION_INDEX) & self._mask

    def compute_folded_array(self, folded: np.ndarray) -> np.ndarray:
        """The checksums of pre-folded key lanes (see
        :func:`~repro.hashing.hash_family.fold_keys`), vectorised.

        Element-wise equal to :meth:`compute` on the original keys; the
        columnar batch path and the simulator derive every stored checksum
        this way (a single lane is resolved by ``DartAddressing``).
        """
        hashes = self.family.hash_folded_array(folded, CHECKSUM_FUNCTION_INDEX)
        return hashes & np.uint64(self._mask)

    def collision_probability(self) -> float:
        """Probability a *different* key produces the same checksum (2^-b)."""
        return 2.0 ** -self.bits
