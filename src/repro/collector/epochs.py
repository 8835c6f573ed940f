"""Epoch-based persistence for historical queries.

Paper section 5.2.1: direct memory writes give line-rate ingestion but DRAM
cannot hold network-wide history, so DART proposes "DRAM for temporary
epoch-based storage ... combined with periodical transfer of data into a
larger (and much slower) persistent storage where historical queries can be
answered", leaving the details as future work.  This module supplies a
working design for that future work:

- :class:`EpochManager` rotates a collector's live region on a fixed epoch
  boundary, archiving a snapshot and zeroing the region;
- :class:`EpochArchive` stores snapshots (in memory or on disk) and serves
  the standard DART query path against any archived epoch, since a snapshot
  preserves slot addressing exactly.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.client import DartQueryClient
from repro.core.config import DartConfig
from repro.core.policies import QueryResult, ReturnPolicy
from repro.collector.collector import Collector
from repro.hashing.hash_family import Key


class EpochImageMissingError(KeyError):
    """A requested epoch snapshot is not in the archive.

    Carries the collector role, the epoch and (for disk-backed archives)
    the path that was expected, so operators can tell a mis-rotated
    archive from a query for an epoch that never happened.
    """

    def __init__(
        self, epoch: int, collector_id: int, path: Optional[Path] = None
    ) -> None:
        self.epoch = epoch
        self.collector_id = collector_id
        self.path = path
        message = f"no archived image for collector {collector_id}, epoch {epoch}"
        if path is not None:
            message += f" (expected {path})"
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep the message readable.
        return self.args[0]


class EpochArchive:
    """Stores per-epoch region snapshots and answers historical queries.

    Parameters
    ----------
    config:
        The deployment config (slot layout must match the archived regions).
    directory:
        If given, snapshots are gzip-compressed to disk under this
        directory (the "much slower persistent storage"); otherwise they
        are kept in memory.
    """

    def __init__(self, config: DartConfig, directory: Optional[Path] = None) -> None:
        self.config = config
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._in_memory: Dict[int, Dict[int, bytes]] = {}

    def _path(self, epoch: int, collector_id: int) -> Path:
        assert self.directory is not None
        return self.directory / f"epoch-{epoch:08d}-collector-{collector_id:04d}.bin.gz"

    def store(self, epoch: int, collector_id: int, image: bytes) -> None:
        """Archive one collector's region snapshot for ``epoch``."""
        if self.directory is not None:
            with gzip.open(self._path(epoch, collector_id), "wb") as handle:
                handle.write(image)
        else:
            self._in_memory.setdefault(epoch, {})[collector_id] = image

    def load(self, epoch: int, collector_id: int) -> bytes:
        """Fetch an archived snapshot.

        Raises :class:`EpochImageMissingError` (a ``KeyError`` subclass,
        so existing handlers keep working) naming the collector, epoch and
        -- for disk archives -- the path that should have held the image.
        """
        if self.directory is not None:
            path = self._path(epoch, collector_id)
            if not path.exists():
                raise EpochImageMissingError(epoch, collector_id, path)
            with gzip.open(path, "rb") as handle:
                return handle.read()
        try:
            return self._in_memory[epoch][collector_id]
        except KeyError:
            raise EpochImageMissingError(epoch, collector_id) from None

    def epochs(self) -> List[int]:
        """Archived epoch IDs, ascending."""
        if self.directory is not None:
            seen = {
                int(path.name.split("-")[1])
                for path in self.directory.glob("epoch-*-collector-*.bin.gz")
            }
            return sorted(seen)
        return sorted(self._in_memory)

    def query(
        self,
        epoch: int,
        key: Key,
        policy: ReturnPolicy = ReturnPolicy.PLURALITY,
    ) -> QueryResult:
        """Run the standard DART query against an archived epoch.

        Addressing is identical to live queries because snapshots preserve
        slot positions; only the reader differs.
        """
        slot_bytes = self.config.slot_bytes

        def reader(collector_id: int, slot_index: int) -> bytes:
            image = self.load(epoch, collector_id)
            offset = slot_index * slot_bytes
            return image[offset : offset + slot_bytes]

        client = DartQueryClient(self.config, reader=reader, policy=policy)
        return client.query(key)


class EpochManager:
    """Rotates collectors through epochs, archiving each region image.

    Each :meth:`rotate` (an epoch boundary: the operator's, or the
    controller's before a failover) snapshots the current regions into
    the archive and zeroes them, bounding the load factor each epoch sees.
    """

    def __init__(
        self, collectors: Sequence[Collector], archive: EpochArchive
    ) -> None:
        self.collectors = collectors
        self.archive = archive
        self.current_epoch = 0

    def rotate(self) -> int:
        """Archive every collector's region and start a new epoch.

        Images are archived under each collector's *position* in the list
        (its keyspace role), not its node ID: the archive must stay
        addressable by the same role the query path hashes to even after a
        failover has a standby host (node ID outside the keyspace) serving
        the role.  ``self.collectors`` may be a live view (e.g.
        :attr:`CollectorCluster.collectors`), in which case each rotation
        snapshots whichever hosts currently serve the fleet.
        """
        archived_epoch = self.current_epoch
        for role, collector in enumerate(self.collectors):
            self.archive.store(
                archived_epoch,
                role,
                collector.region.snapshot(),
            )
            collector.clear()
        self.current_epoch += 1
        return archived_epoch
