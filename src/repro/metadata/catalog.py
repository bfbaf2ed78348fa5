"""The RAPIDS metadata schema on top of the key-value store.

Tracks, per data object: the refactoring information needed for
reconstruction (shape, dtype, level sizes and errors), the per-level
fault-tolerance configuration, the location of every data/parity
fragment, and the observed throughput history of each storage system
(used to refresh the bandwidth parameters of the gathering optimiser, as
described in §4.3).

Key layout (all UTF-8)::

    obj/<name>                      -> object record (JSON)
    frag/<sname>/<level>/<index>    -> fragment record (JSON)
    bw/<system_id>                  -> throughput history (JSON list)
    acc/<name>                      -> cumulative access count (JSON int)

``<sname>`` is the *storage name* of a level: the object name itself
for generation 0, or ``<name>@g<gen>`` after a live re-encoding
migration bumped that level's generation (see
:func:`level_storage_name`).  The ``@g`` suffix is reserved — object
names must not contain it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .kvstore import KVStore

__all__ = [
    "ObjectRecord",
    "FragmentRecord",
    "MetadataCatalog",
    "level_storage_name",
]


def level_storage_name(name: str, generation: int) -> str:
    """Storage-layer name for one level of an object.

    Live migration re-encodes a level under a fresh *generation* so the
    new fragment set never collides with the old one on the cluster or
    in the fragment records; the single atomic flip is the object
    record's per-level generation list.  Generation 0 — every object at
    prepare time — keeps the bare name, so unmigrated workspaces are
    untouched.
    """
    if generation < 0:
        raise ValueError("generation must be >= 0")
    return name if generation == 0 else f"{name}@g{generation}"


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


@dataclass
class FragmentRecord:
    """Location and integrity info for one fragment."""

    object_name: str
    level: int
    index: int
    system_id: int
    nbytes: int
    checksum: int = 0


class MetadataCatalog:
    """Typed facade over a KV store for RAPIDS metadata.

    Accepts a directory path (opens a local :class:`KVStore`) or any
    already-open store exposing the KV interface.
    """

    def __init__(self, path: "str | Path | KVStore") -> None:
        self._own_store = not hasattr(path, "get")
        self.store = KVStore(path) if self._own_store else path
        #: Serialises the read-modify-write counters below
        #: (``record_access`` / ``record_throughput``): the store makes
        #: each get and put atomic, not the pair, so concurrent restores
        #: would otherwise lose history entries.
        self._rmw_lock = threading.Lock()

    def attach_injector(self, injector) -> None:
        """Forward a chaos injector to the underlying KV store (no-op
        for store implementations without the seam)."""
        attach = getattr(self.store, "attach_injector", None)
        if attach is not None:
            attach(injector)

    # -- objects -----------------------------------------------------------

    def put_object(self, rec: ObjectRecord) -> None:
        self.store.put(
            f"obj/{rec.name}".encode(), json.dumps(asdict(rec)).encode()
        )

    def get_object(self, name: str) -> ObjectRecord:
        raw = self.store.get(f"obj/{name}".encode())
        if raw is None:
            raise KeyError(f"no such object: {name!r}")
        return ObjectRecord(**json.loads(raw))

    def list_objects(self) -> list[str]:
        return [k.decode()[4:] for k in self.store.keys(b"obj/")]

    def delete_object(self, name: str) -> None:
        """Remove an object and all its fragment records (every
        storage generation) plus its access counter."""
        self.store.delete(f"obj/{name}".encode())
        for prefix in (f"frag/{name}/", f"frag/{name}@"):
            for key in self.store.keys(prefix.encode()):
                self.store.delete(key)
        self.store.delete(f"acc/{name}".encode())

    # -- fragments -----------------------------------------------------------

    def put_fragment(self, rec: FragmentRecord) -> None:
        key = f"frag/{rec.object_name}/{rec.level:04d}/{rec.index:04d}"
        self.store.put(key.encode(), json.dumps(asdict(rec)).encode())

    def get_fragment(self, object_name: str, level: int, index: int) -> FragmentRecord:
        key = f"frag/{object_name}/{level:04d}/{index:04d}"
        raw = self.store.get(key.encode())
        if raw is None:
            raise KeyError(
                f"no fragment record for ({object_name!r}, {level}, {index})"
            )
        return FragmentRecord(**json.loads(raw))

    def level_fragments(self, object_name: str, level: int) -> list[FragmentRecord]:
        prefix = f"frag/{object_name}/{level:04d}/".encode()
        return [
            FragmentRecord(**json.loads(v)) for _, v in self.store.scan(prefix)
        ]

    def relocate_fragment(
        self, object_name: str, level: int, index: int, new_system: int
    ) -> None:
        """Update a fragment's location after repair onto a new system (§4.2)."""
        rec = self.get_fragment(object_name, level, index)
        rec.system_id = new_system
        self.put_fragment(rec)

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

    def access_count(self, name: str) -> int:
        raw = self.store.get(f"acc/{name}".encode())
        return int(json.loads(raw)) if raw else 0

    def access_counts(self) -> dict[str, int]:
        """Cumulative access counts for every tracked object."""
        return {
            k.decode()[4:]: int(json.loads(v))
            for k, v in self.store.scan(b"acc/")
        }

    # -- bandwidth history ------------------------------------------------------

    def record_throughput(self, system_id: int, bytes_per_sec: float, *, keep: int = 64) -> None:
        """Append an observed transfer throughput for a system."""
        if bytes_per_sec <= 0:
            raise ValueError("throughput must be positive")
        key = f"bw/{system_id:04d}".encode()
        with self._rmw_lock:
            raw = self.store.get(key)
            hist = json.loads(raw) if raw else []
            hist.append(float(bytes_per_sec))
            self.store.put(key, json.dumps(hist[-keep:]).encode())

    def bandwidth_estimate(self, system_id: int, *, alpha: float = 0.3) -> float | None:
        """EWMA bandwidth estimate from the recorded history (newest-weighted)."""
        raw = self.store.get(f"bw/{system_id:04d}".encode())
        if raw is None:
            return None
        hist = json.loads(raw)
        est = hist[0]
        for obs in hist[1:]:
            est = (1 - alpha) * est + alpha * obs
        return float(est)

    def close(self) -> None:
        if self._own_store:
            self.store.close()

    def __enter__(self) -> "MetadataCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
