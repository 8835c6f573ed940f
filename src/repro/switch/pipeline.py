"""Match-action tables, the programmable-switch building block.

P4 pipelines are sequences of tables: each matches header/metadata fields
and binds action parameters.  DART needs one small exact-match table
(collector ID -> RoCEv2 endpoint parameters, paper section 6), so the
model is exactly that: a statically sized hash index from the match tuple
to its entry, with the ASIC's install-time checks and SRAM accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Sequence, Tuple

from repro import obs


class MatchKind(Enum):
    """P4 match kinds supported by the table model."""

    EXACT = "exact"


@dataclass(frozen=True)
class TableEntry:
    """One installed entry: match spec -> (action name, parameters)."""

    match: Tuple[Any, ...]
    action: str
    params: Dict[str, Any] = field(default_factory=dict)


class MatchActionTable:
    """A P4 exact-match table with install-time validation.

    Parameters
    ----------
    name:
        Table name (diagnostics and SRAM accounting).
    match_kinds:
        The match kind of each key field, in order.
    max_entries:
        Capacity; P4 tables are statically sized, and installs beyond the
        capacity fail exactly as they would on the ASIC.
    entry_value_bytes:
        Approximate action-data bytes per entry, for SRAM accounting.
    """

    def __init__(
        self,
        name: str,
        match_kinds: Sequence[MatchKind],
        max_entries: int,
        entry_value_bytes: int = 0,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if not match_kinds:
            raise ValueError("a table needs at least one match field")
        self.name = name
        self.match_kinds = tuple(match_kinds)
        self.max_entries = max_entries
        self.entry_value_bytes = entry_value_bytes
        self._entries: Dict[Tuple[Any, ...], TableEntry] = {}
        registry = obs.get_registry()
        labels = registry.instance_labels("MatchActionTable") + (
            ("table", name),
        )
        #: Lookups that matched an installed entry.
        self.c_hits = registry.counter("switch_table_hits", labels=labels)
        #: Lookups that matched no entry.
        self.c_misses = registry.counter("switch_table_misses", labels=labels)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"MatchActionTable(name={self.name!r}, entries={len(self)}/"
            f"{self.max_entries})"
        )

    @property
    def hits(self) -> int:
        """Lookups that matched an installed entry (registry-backed)."""
        return self.c_hits.value

    @property
    def misses(self) -> int:
        """Lookups that matched no entry (registry-backed)."""
        return self.c_misses.value

    def add_entry(self, entry: TableEntry) -> None:
        """Install an entry; rejects capacity overflow, key-arity errors
        and a second entry for an installed match spec."""
        if len(self._entries) >= self.max_entries:
            raise ValueError(
                f"table {self.name} full ({self.max_entries} entries)"
            )
        if len(entry.match) != len(self.match_kinds):
            raise ValueError(
                f"entry has {len(entry.match)} match fields, table "
                f"{self.name} expects {len(self.match_kinds)}"
            )
        if entry.match in self._entries:
            raise ValueError(
                f"duplicate exact-match entry {entry.match} in {self.name}"
            )
        self._entries[entry.match] = entry

    def entry(self, match: Tuple[Any, ...]) -> Optional[TableEntry]:
        """The installed entry with this match spec, without counting.

        Control-plane reads (rollback snapshots, audits) use this so the
        hit/miss counters keep reflecting data-plane lookups only.
        """
        return self._entries.get(match)

    def remove_entry(self, match: Tuple[Any, ...]) -> bool:
        """Remove the entry with the given match spec; returns success."""
        return self._entries.pop(match, None) is not None

    def lookup(self, *values: Any) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Match ``values`` against the table: ``(action, params)``, or
        None on a miss (P4's implicit NoAction)."""
        if len(values) != len(self.match_kinds):
            raise ValueError(
                f"lookup with {len(values)} fields, table {self.name} "
                f"expects {len(self.match_kinds)}"
            )
        entry = self._entries.get(values)
        if entry is None:
            self.c_misses.inc()
            return None
        self.c_hits.inc()
        return entry.action, entry.params

    @property
    def sram_bytes(self) -> int:
        """Approximate SRAM held by installed entries (key + action data)."""
        key_bytes = 4 * len(self.match_kinds)
        return len(self._entries) * (key_bytes + self.entry_value_bytes)
