"""File-backed storage systems: fragments persisted as container files.

The in-memory :class:`~repro.storage.cluster.StorageCluster` is ideal
for simulation; real deployments keep fragments on disk.  This module
mirrors the cluster API over a directory tree::

    root/
      system-00/
        <object>.l0.f00.rdc      # self-describing fragment containers
        .unavailable             # marker while failed / in maintenance
      system-01/
      ...
      cluster.json               # bandwidths + names

The file name is the inventory, the header is the self-description,
the payload is read only to be verified or used.  What is resident
where comes from one directory listing per system (``resident()``: the
name ``has()``/``get()`` format, parsed back; no file opened), so a torn
file is simply resident — whoever reads it finds the damage — and cannot
break the lookup of another object.  Every file is a :mod:`repro.formats`
container whose header carries the object name, level, index and EC
parameters (a directory restored from tape is self-describing without
the catalog); ``fragment_keys()`` reads that header and nothing else,
``get()`` alone reads a payload and hashes it once.  Nothing is cached
between calls (see :class:`~repro.storage.cluster.Inventory`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..formats import FormatError, crc32
from ..formats.container import (
    read_fragment_file,
    read_fragment_header,
    write_fragment_file,
)
from .cluster import Inventory, StorageCluster
from .system import (
    CorruptFragmentError, StorageSystem, StoredFragment, UnavailableError,
)

__all__ = ["FileStorageSystem", "FileStorageCluster"]

_MARKER = ".unavailable"


def _stored_name(object_name: str) -> str:
    return object_name.replace("/", "_").replace(":", "_")


def _fragment_filename(object_name: str, level: int, index: int) -> str:
    return f"{_stored_name(object_name)}.l{level}.f{index:02d}.rdc"


def _parse_filename(filename: str) -> tuple[str, int, int] | None:
    """Inverse of :func:`_fragment_filename`, or ``None`` for a name
    ``has()`` could never ask for."""
    # Split from the right on plain strings: the stored name may itself
    # contain ".l3" or glob metacharacters.
    stem, _, index = filename.removesuffix(".rdc").rpartition(".f")
    name, _, level = stem.rpartition(".l")
    if not (level.isdecimal() and index.isdecimal()):
        return None
    key = (name, int(level), int(index))
    return key if _fragment_filename(*key) == filename else None


class FileStorageSystem:
    """One storage endpoint persisting fragments under a directory."""

    def __init__(self, system_id: int, name: str, bandwidth: float, root: Path):
        self.system_id = system_id
        self.name = name
        self.bandwidth = float(bandwidth)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Joined once: a file's path is this prefix plus its name, with
        # no pathlib join per call.
        self._dir = os.path.join(self.root, "")
        self._marker = self._dir + _MARKER
        #: Optional chaos seam (see :mod:`repro.chaos`).
        self.injector = None

    def _path(self, object_name: str, level: int, index: int) -> str:
        return self._dir + _fragment_filename(object_name, level, index)

    # -- availability -----------------------------------------------------

    @property
    def available(self) -> bool:
        return not os.path.exists(self._marker)

    def fail(self) -> None:
        Path(self._marker).touch()

    def restore(self) -> None:
        Path(self._marker).unlink(missing_ok=True)

    def _check(self) -> None:
        if not self.available:
            raise UnavailableError(f"system {self.name} is unavailable")

    # -- fragments ----------------------------------------------------------

    def put(self, frag: StoredFragment) -> None:
        self._check()
        if frag.payload is None:
            raise ValueError("file-backed systems need real payloads")
        crc = frag.checksum if frag.checksum is not None else crc32(frag.payload)
        path = self._path(*frag.key)
        spec = None
        if self.injector is not None:
            spec = self.injector.check(
                "filestore.write", handled=("torn",),
                system_id=self.system_id, object_name=frag.object_name,
                level=frag.level, index=frag.index,
            )
        write_fragment_file(
            path,
            frag.payload,
            object_name=frag.object_name,
            level=frag.level,
            index=frag.index,
            k=0,
            m=0,
            # The payload CRC recorded at put time, not recomputed from
            # whatever lands on disk: it is what read-path verification
            # and the scrubber compare against.  It is the block's CRC
            # too, unless the fragment carries the CRC a read (or an
            # at-rest rot) computed for exactly these bytes.
            extra={"crc32": crc},
            crc=crc if frag.verified_crc is None else frag.verified_crc,
        )
        if spec is not None:
            # Torn write: keep only a prefix of the container file, then
            # crash the operation — what a power cut mid-write leaves.
            from ..chaos import InjectedFault

            size = os.path.getsize(path)
            keep = min(size - 1, int(size * min(spec.magnitude, 1.0)))
            with open(path, "ab") as fh:
                fh.truncate(max(0, keep))
            raise InjectedFault(
                "filestore.write", "torn",
                {"system_id": self.system_id, "object_name": frag.object_name,
                 "level": frag.level, "index": frag.index},
            )

    def get(self, object_name: str, level: int, index: int) -> StoredFragment:
        self._check()
        # The open is the existence check: a file deleted at any moment
        # before it (a concurrent repair's stale-copy delete) is absent.
        # Parsing verified the container block, so ``crc`` *is* the
        # payload's CRC-32: one hash per read, compared three times
        # (block, put-time attribute, the caller's ledger/catalog value).
        try:
            attrs, payload, crc = read_fragment_file(
                self._path(object_name, level, index), with_crc=True
            )
        except FileNotFoundError:
            raise KeyError((object_name, level, index)) from None
        if self.injector is not None:
            wire = self.injector.filter_payload(
                "filestore.read", payload, system_id=self.system_id,
                object_name=object_name, level=level, index=index,
            )
            if wire is not payload:
                payload, crc = wire, crc32(wire)
        expected = attrs.get("crc32")
        if expected is not None and crc != expected:
            raise CorruptFragmentError(
                f"fragment ({object_name!r}, level {level}, index {index}) "
                f"on system {self.name} failed its checksum"
            )
        return StoredFragment(
            attrs["object_name"], attrs["level"], attrs["index"],
            len(payload), payload, checksum=expected, verified_crc=crc,
        )

    get_verified = StorageSystem.get_verified

    def has(self, object_name: str, level: int, index: int) -> bool:
        return self.stored_size(object_name, level, index) is not None

    def stored_size(self, object_name: str, level: int, index: int) -> int | None:
        """Bytes one resident fragment file occupies; ``None`` when absent."""
        try:
            return os.stat(self._path(object_name, level, index)).st_size
        except FileNotFoundError:
            return None

    def delete(self, object_name: str, level: int, index: int) -> None:
        self._check()
        try:
            Path(self._path(object_name, level, index)).unlink()
        except FileNotFoundError:
            raise KeyError((object_name, level, index)) from None

    def resident(self) -> list[tuple[str, int, int, int]]:
        """``(stored name, level, index, file size)`` per resident
        fragment from one directory listing (works while down)."""
        with os.scandir(self.root) as entries:
            return sorted(
                (*key, entry.stat().st_size)
                for entry in entries
                if (key := _parse_filename(entry.name)) is not None
            )

    def fragment_keys(self) -> list[tuple[str, int, int]]:
        """True (unsanitised) keys of the resident fragments, from each
        file's header; a torn file whose header is gone is skipped."""
        keys = []
        for *stored, _ in self.resident():
            try:
                attrs = read_fragment_header(self._path(*stored))
            except FormatError:
                continue
            key = (attrs["object_name"], attrs["level"], attrs["index"])
            if self.injector is not None:
                # A header read is a file read: a plan can fail it at
                # the same site (there is no payload to damage).
                self.injector.check(
                    "filestore.read", handled=("corrupt", "truncate"),
                    system_id=self.system_id, object_name=key[0],
                    level=key[1], index=key[2],
                )
            keys.append(key)
        return keys

    @property
    def used_bytes(self) -> int:
        return sum(size for *_, size in self.resident())


class FileStorageCluster(StorageCluster):
    """A persistent :class:`StorageCluster` over per-system directories,
    so :class:`repro.core.pipeline.RAPIDS` runs on either unchanged."""

    def __init__(
        self,
        root: str | Path,
        bandwidths=None,
    ) -> None:
        self.root = Path(root)
        config_path = self.root / "cluster.json"
        create = bandwidths is not None
        names = None
        if not create:
            if not config_path.exists():
                raise ValueError(
                    f"no cluster at {self.root}; pass bandwidths to create one"
                )
            # rapidslint: disable-next=RPD115 -- cluster.json bootstrap read at attach time, before any injector can exist; data-path I/O goes through the filestore.read/write seams
            cfg = json.loads(config_path.read_text())
            bandwidths, names = cfg["bandwidths"], cfg["names"]
        super().__init__(bandwidths, names)
        if create:
            config_path.write_text(json.dumps({
                "bandwidths": [s.bandwidth for s in self.systems],
                "names": [s.name for s in self.systems],
            }))

    def _new_system(self, system_id: int, name: str, bandwidth: float):
        return FileStorageSystem(
            system_id, name, bandwidth, self.root / f"system-{system_id:02d}"
        )

    def inventory(self) -> Inventory:
        """A fresh names-only snapshot of every system's directory."""
        return Inventory(self.systems, _stored_name)

    # In this class's own namespace, where benchmark tracing patches it.
    locate = StorageCluster.locate
