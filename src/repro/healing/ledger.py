"""The durability ledger: what fragments *should* exist, and where.

For each object level the ledger answers the durability question: which
fragment set (with CRCs) was committed, where each fragment is supposed
to live, and how much redundancy headroom remains against the planned
fault tolerance ``m_j``.  The scrubber verifies the store against it;
the repair engine restores it.

It is a typed view, not a second copy.  A level's fragment set is the
object record's (``obj/<name>`` carries every level's checksums, sizes
and placements, see :class:`~repro.metadata.catalog.ObjectRecord`).  The
only state of its own is headroom, one advisory key per level that the
scrubber owns::

    health/<name>/<level:04d>   -> headroom (JSON int); absent = m_j

``headroom`` is ``m_j`` minus the number of known unrepaired damaged
fragments: ``headroom == m_j`` means full redundancy, ``0`` means the
next loss makes the level unrecoverable, ``< 0`` means it already is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..metadata import ObjectRecord, health_key

__all__ = ["DurabilityLedger", "LedgerEntry"]


@dataclass
class LedgerEntry:
    """Expected durable state of one erasure-coded level."""

    object_name: str
    level: int
    n: int
    m: int
    checksums: list[int]  # fragment index -> CRC-32 committed at encode time
    nbytes: list[int]     # fragment index -> payload size
    placement: list[int]  # fragment index -> authoritative system id
    headroom: int         # m minus known unrepaired damage
    #: Name the fragments are stored under on the cluster.  Empty means
    #: the object name itself (generation 0); after a live migration it
    #: is the level's generation name.
    storage_name: str = ""

    def __post_init__(self) -> None:
        if not (len(self.checksums) == len(self.nbytes) == len(self.placement) == self.n):
            raise ValueError("checksums/nbytes/placement must have n entries")

    @property
    def k(self) -> int:
        """Fragments needed to decode (n - m)."""
        return self.n - self.m

    @property
    def store_name(self) -> str:
        """Cluster-side name of this level's fragment set."""
        return self.storage_name or self.object_name

    def describe(self) -> str:
        state = "full" if self.headroom == self.m else (
            "LOST" if self.headroom < 0 else f"headroom {self.headroom}/{self.m}"
        )
        return (
            f"{self.object_name!r} level {self.level}: "
            f"n={self.n} m={self.m} [{state}]"
        )


class DurabilityLedger:
    """Typed durability view over a :class:`~repro.metadata.catalog.MetadataCatalog`.

    Entries are derived from the object records on every read; the
    headroom keys share the catalog's store, so one kvstore file holds
    everything and a single snapshot/restore covers it.
    """

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.store = catalog.store

    # -- read --------------------------------------------------------------

    def entry(self, rec: ObjectRecord, level: int) -> LedgerEntry | None:
        """``level``'s entry from an already-read object record (one
        headroom read); None if the record carries no fragment set."""
        if level >= len(rec.checksums):
            return None
        raw = self.store.get(health_key(rec.name, level))
        return _entry(rec, level, None if raw is None else json.loads(raw))

    def get(self, object_name: str, level: int) -> LedgerEntry | None:
        try:
            rec = self.catalog.get_object(object_name)
        except KeyError:
            return None
        return self.entry(rec, level)

    def entries(self) -> list[LedgerEntry]:
        """Every object's entries, in (object, level) order."""
        headroom = {k: json.loads(v) for k, v in self.store.scan(b"health/")}
        return [
            _entry(rec, j, headroom.get(health_key(rec.name, j)))
            for rec in self.catalog.objects()
            for j in range(len(rec.checksums))
        ]

    def deficits(self) -> list[LedgerEntry]:
        """Entries with known unrepaired damage (headroom < m)."""
        return [e for e in self.entries() if e.headroom < e.m]

    # -- write -------------------------------------------------------------

    def record(self, entry: LedgerEntry) -> None:
        """Commit a repaired level: its fragment set into the object
        record, its headroom into ``health/``."""
        rec = self.catalog.get_object(entry.object_name)
        rec.checksums[entry.level] = list(entry.checksums)
        rec.fragment_sizes[entry.level] = list(entry.nbytes)
        rec.placements[entry.level] = list(entry.placement)
        self.catalog.put_object(rec)
        self.set_headroom(entry, entry.headroom)

    def set_headroom(self, entry: LedgerEntry, headroom: int) -> None:
        """Store a level's headroom; full redundancy is the absent key."""
        if headroom < entry.m:
            self.store.put(
                health_key(entry.object_name, entry.level),
                json.dumps(int(headroom)).encode(),
            )
        else:
            self.clear(entry.object_name, entry.level)

    def clear(self, object_name: str, level: int) -> None:
        """Forget a level's known damage: a freshly committed fragment
        set starts at full redundancy."""
        self.store.delete(health_key(object_name, level))


def _entry(rec: ObjectRecord, level: int, headroom: int | None) -> LedgerEntry:
    m = int(rec.ft_config[level])
    sname = rec.level_storage_name(level)
    return LedgerEntry(
        object_name=rec.name,
        level=level,
        n=rec.n_systems,
        m=m,
        checksums=list(rec.checksums[level]),
        nbytes=list(rec.fragment_sizes[level]),
        placement=list(rec.placements[level]),
        headroom=m if headroom is None else int(headroom),
        storage_name="" if sname == rec.name else sname,
    )
