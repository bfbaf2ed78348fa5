"""The RAPIDS metadata schema on top of the key-value store.

Tracks, per data object: the refactoring information needed for
reconstruction (shape, dtype, level sizes and errors), the per-level
fault-tolerance configuration, the checksum, size and location of every
data/parity fragment, and the observed throughput of each storage
system as a running EWMA (used to refresh the bandwidth parameters of
the gathering optimiser, as described in §4.3).  Only observations
are recorded: a restore reads the catalog and writes nothing to it.

Key layout (all UTF-8)::

    obj/<name>                  -> object record (JSON), every level's
                                   fragment checksums, sizes, placements
    health/<name>/<level:04d>   -> redundancy headroom below m_j (JSON
                                   int; absent = full), scrubber-owned
    bw/<system_id:04d>          -> throughput EWMA state (JSON
                                   ``{"ewma": v, "count": c}``)
    acc/<name>                  -> cumulative access count (JSON int)

The object record is the one truth about an object's fragments: a
commit places every fragment and then puts the record, so a reader
never sees an object whose fragments are not all in place.

``<sname>`` is the *storage name* of a level: the object name itself
for generation 0, or ``<name>@g<gen>`` after a live re-encoding
migration bumped that level's generation (see
:func:`level_storage_name`).  The ``@g`` suffix is reserved — object
names must not contain it.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..ec.codec import encoded_fragment_len
from .kvstore import KVStore

__all__ = [
    "ObjectRecord",
    "MetadataCatalog",
    "health_key",
    "level_storage_name",
]


def level_storage_name(name: str, generation: int) -> str:
    """Storage-layer name for one level of an object.

    Live migration re-encodes a level under a fresh *generation* so the
    new fragment set never collides with the old one on the cluster;
    the single atomic flip is the object record's per-level generation
    list.  Generation 0 — every object at prepare time — keeps the bare
    name, so unmigrated workspaces are untouched.
    """
    if generation < 0:
        raise ValueError("generation must be >= 0")
    return name if generation == 0 else f"{name}@g{generation}"


def health_key(name: str, level: int) -> bytes:
    """Key of one level's advisory headroom (see :mod:`repro.healing`)."""
    return f"health/{name}/{level:04d}".encode()


@dataclass
class ObjectRecord:
    """Reconstruction metadata for one refactored data object."""

    name: str
    shape: list[int]
    dtype: str
    level_sizes: list[int]
    level_errors: list[float]
    ft_config: list[int]  # m_j per level
    n_systems: int
    data_max: float = 0.0
    correction: bool = True
    extra: dict = field(default_factory=dict)
    #: Per level, per fragment index: the CRC-32 committed at encode
    #: time, the payload size, and the system holding it.
    checksums: list[list[int]] = field(default_factory=list)
    fragment_sizes: list[list[int]] = field(default_factory=list)
    placements: list[list[int]] = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        return len(self.level_sizes)

    @property
    def generations(self) -> list[int]:
        """Per-level storage generation (0 = as prepared; bumped by
        live migration).  Stored in ``extra`` so old records round-trip
        unchanged."""
        gens = self.extra.get("generations")
        if gens is None:
            return [0] * self.num_levels
        return [int(g) for g in gens]

    def level_storage_name(self, level: int) -> str:
        return level_storage_name(self.name, self.generations[level])

    def tile_table(self) -> tuple[list[tuple[int, int]], list, list]:
        """The object's axis-0 tile table ``(tiles, plans, chunks)``.

        ``tiles[t]`` are tile ``t``'s plane bounds, ``plans[t]`` its level
        plans, and ``chunks[j][t]`` the byte length of its independently
        encoded chunk inside every fragment of level ``j`` (fragment ``i``
        of a level is the concatenation over tiles of those chunks).
        Multi-tile prepares store the table under ``extra["procpipe"]``;
        a record without one *is* the one-tile table — the whole extent,
        ``extra["plans"]``, one chunk per fragment — derived here and
        nowhere else, so every reader and re-encoder sees one layout.
        """
        pp = self.extra.get("procpipe")
        if pp is not None:
            tiles = [(int(lo), int(hi)) for lo, hi in pp["tiles"]]
            return tiles, pp["plans"], pp["chunks"]
        chunks = [
            [encoded_fragment_len(self.n_systems - m, size)]
            for m, size in zip(self.ft_config, self.level_sizes)
        ]
        return [(0, int(self.shape[0]))], [self.extra["plans"]], chunks

    def set_chunks(self, level: int, chunks: list[int]) -> None:
        """Store a re-encoded level's chunk lengths (derived, so not
        stored, on a one-tile record)."""
        if "procpipe" in self.extra:
            self.extra["procpipe"]["chunks"][level] = list(chunks)


_RECORD_FIELDS = tuple(f.name for f in fields(ObjectRecord))


class MetadataCatalog:
    """Typed facade over a KV store for RAPIDS metadata.

    Accepts a directory path (opens a local :class:`KVStore`) or any
    already-open store exposing the KV interface.
    """

    def __init__(self, path: "str | Path | KVStore") -> None:
        self._own_store = not hasattr(path, "get")
        self.store = KVStore(path) if self._own_store else path
        #: Serialises the read-modify-write records below
        #: (``record_access`` / ``record_throughput``): the store makes
        #: each get and put atomic, not the pair, so concurrent callers
        #: would otherwise lose updates.  Restores write neither record.
        self._rmw_lock = threading.Lock()
        self._adopt_fragment_records()

    def attach_injector(self, injector) -> None:
        """Forward a chaos injector to the underlying KV store (no-op
        for store implementations without the seam)."""
        attach = getattr(self.store, "attach_injector", None)
        if attach is not None:
            attach(injector)

    # -- objects -----------------------------------------------------------

    def put_object(self, rec: ObjectRecord) -> None:
        # The record's own fields, in declaration order: the bytes
        # ``asdict`` gives, without its deep copy of every list.
        record = {name: getattr(rec, name) for name in _RECORD_FIELDS}
        self.store.put(f"obj/{rec.name}".encode(), json.dumps(record).encode())

    def get_object(self, name: str) -> ObjectRecord:
        raw = self.store.get(f"obj/{name}".encode())
        if raw is None:
            raise KeyError(f"no such object: {name!r}")
        return ObjectRecord(**json.loads(raw))

    def list_objects(self) -> list[str]:
        return [k.decode()[4:] for k in self.store.keys(b"obj/")]

    def objects(self) -> list[ObjectRecord]:
        """Every object record, in name order."""
        return [ObjectRecord(**json.loads(v)) for _, v in self.store.scan(b"obj/")]

    def _adopt_fragment_records(self) -> None:
        """Fold a workspace that kept fragments outside the object record.

        Such a workspace holds one ``frag/<sname>/<level>/<index>``
        record per fragment and one ``ledger/<name>/<level>`` entry per
        level.  A level's fragment set comes from its ledger entry when
        that entry is of the level's current generation, else from its
        n fragment records; headroom below ``m_j`` moves to ``health/``.
        An object with a level that has neither stays as it is.  The old
        keys are deleted afterwards, so this runs once per workspace.
        """
        old = self.store.keys(b"frag/") + self.store.keys(b"ledger/")
        if not old:
            return
        frags: dict[tuple[str, int], dict[int, dict]] = {}
        for _, raw in self.store.scan(b"frag/"):
            f = json.loads(raw)
            frags.setdefault((f["object_name"], f["level"]), {})[f["index"]] = f
        for rec in self.objects():
            name = rec.name
            crcs, sizes, homes = [], [], []
            for j, m in enumerate(rec.ft_config):
                sname = rec.level_storage_name(j)
                raw = self.store.get(f"ledger/{name}/{j:04d}".encode())
                entry = json.loads(raw) if raw is not None else {}
                if entry and (entry.get("storage_name") or name) == sname:
                    crcs.append(entry["checksums"])
                    sizes.append(entry["nbytes"])
                    homes.append(entry["placement"])
                    if entry["headroom"] < m:
                        self.store.put(health_key(name, j),
                                       json.dumps(entry["headroom"]).encode())
                    continue
                level = frags.get((sname, j), {})
                if sorted(level) != list(range(rec.n_systems)):
                    break
                crcs.append([level[i]["checksum"] for i in sorted(level)])
                sizes.append([level[i]["nbytes"] for i in sorted(level)])
                homes.append([level[i]["system_id"] for i in sorted(level)])
            else:
                rec.checksums, rec.fragment_sizes, rec.placements = (
                    crcs, sizes, homes
                )
                self.put_object(rec)
        for key in old:
            self.store.delete(key)

    # -- access frequency -------------------------------------------------------

    def record_access(self, name: str, count: int = 1) -> int:
        """Bump an object's cumulative access counter; returns the new
        total.  The control plane differences successive totals to see
        per-epoch request rates (flash-crowd detection)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        key = f"acc/{name}".encode()
        with self._rmw_lock:
            raw = self.store.get(key)
            total = (int(json.loads(raw)) if raw else 0) + int(count)
            self.store.put(key, json.dumps(total).encode())
        return total

    def access_counts(self) -> dict[str, int]:
        """Cumulative access counts for every tracked object."""
        return {
            k.decode()[4:]: int(json.loads(v))
            for k, v in self.store.scan(b"acc/")
        }

    # -- bandwidth estimate -----------------------------------------------------

    def record_throughput(self, system_id: int, bytes_per_sec: float) -> None:
        """Fold one observed transfer throughput into the system's EWMA
        (weight 0.3 on the newer observation)."""
        est = float(bytes_per_sec)
        if not (math.isfinite(est) and est > 0):
            raise ValueError("throughput must be finite and positive")
        key = f"bw/{system_id:04d}".encode()
        with self._rmw_lock:
            old = self._bw_state(key)
            if old is not None:
                est = (1 - 0.3) * old["ewma"] + 0.3 * est
            count = 1 if old is None else old["count"] + 1
            self.store.put(key, json.dumps({"ewma": est, "count": count}).encode())

    def bandwidth_estimate(self, system_id: int) -> float | None:
        """The system's observed throughput EWMA (``None`` before its
        first observation)."""
        state = self._bw_state(f"bw/{system_id:04d}".encode())
        return None if state is None else float(state["ewma"])

    def _bw_state(self, key: bytes) -> dict | None:
        """A ``bw/`` record.  The JSON list an older workspace keeps there
        holds what its restores wrote, the configured bandwidths, and no
        observation, so it reads as none."""
        raw = self.store.get(key)
        state = json.loads(raw) if raw is not None else None
        return state if isinstance(state, dict) else None

    def close(self) -> None:
        if self._own_store:
            self.store.close()

    def __enter__(self) -> "MetadataCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
