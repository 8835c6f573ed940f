"""Hashing substrate for the DART reproduction.

DART's correctness hinges on *global* hash functions: every switch and every
query client must map a telemetry key to exactly the same collector and the
same N slot addresses, with no coordination.  This package provides the
building blocks:

- :mod:`repro.hashing.hash_family` -- an indexed family of independent 64-bit
  hash functions built from strong integer mixers, used for the
  (key, n) -> slot-address mapping and the key -> collector mapping.  It
  stands in for Tofino's CRC hash extern (paper section 6), which is why
  no CRC catalogue lives here: the one CRC that runs is the RoCEv2
  invariant CRC, zlib's CRC-32, in :mod:`repro.rdma.packets`.
- :mod:`repro.hashing.checksum` -- the b-bit key checksum stored alongside
  each value so that overwritten slots can be detected at query time.
"""

from repro.hashing.hash_family import (
    HashFamily,
    fold_key,
    mix64,
    splitmix64,
    stable_key_bytes,
)
from repro.hashing.checksum import KeyChecksum

__all__ = [
    "HashFamily",
    "KeyChecksum",
    "fold_key",
    "mix64",
    "splitmix64",
    "stable_key_bytes",
]
