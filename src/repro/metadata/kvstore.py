"""An embedded log-structured key-value store (RocksDB substitute).

The RAPIDS metadata component needs a durable, low-latency embedded
key-value database.  This store follows the Bitcask design that also
underlies RocksDB's WAL path:

* Writes append CRC-checked records to the active segment file; the
  in-memory index maps each key to its latest record's (segment, offset).
* Reads are one seek into the owning segment.
* Deletes append a tombstone.
* When the active segment exceeds ``segment_bytes``, it is sealed and a
  new one starts.
* On open, segments are replayed oldest-to-newest to rebuild the index.
  A torn final record (crash mid-append) is detected via its CRC/length
  and the file is truncated back to the last valid record.

Record wire format (little-endian)::

    u32 crc  | u32 key_len | u32 val_len | u8 tombstone | key | value

The CRC covers everything after the crc field.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path

__all__ = ["KVStore", "CorruptionError"]

_HEADER = struct.Struct("<III B")
_SEGMENT_PREFIX = "seg-"


class CorruptionError(RuntimeError):
    """Raised when a segment contains an unrecoverable corruption."""


class KVStore:
    """Durable embedded key-value store over a directory of segment files.

    Keys and values are ``bytes``.  A single RAPIDS metadata service owns
    the directory, as in the paper (metadata is "only maintained on one
    system"); within that process an internal lock serialises operations,
    so the archive service's thread and pool threads may share one store.
    """

    def __init__(self, path: str | os.PathLike, *, segment_bytes: int = 4 * 2**20):
        if segment_bytes < 1024:
            raise ValueError("segment_bytes too small")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        # key -> (segment id, offset, total record length) for live keys
        self._index: dict[bytes, tuple[int, int, int]] = {}
        self._handles: dict[int, object] = {}
        self._active_id = 0
        self._active = None
        #: Optional chaos seam (see :mod:`repro.chaos`): consulted on
        #: every append/read; ``torn`` write faults crash the store.
        self.injector = None
        self._crashed = False
        # Serialises appends/reads across threads (the archive service
        # runs concurrent pipeline executions over one catalog).  scan
        # reads its batch with _get_locked inside one acquisition; the
        # lock is never taken re-entrantly.
        self._lock = threading.Lock()
        self._recover()

    def attach_injector(self, injector) -> None:
        """Attach (or clear) a chaos injector."""
        self.injector = injector

    # -- segment plumbing ------------------------------------------------

    def _segment_path(self, seg_id: int) -> Path:
        return self.path / f"{_SEGMENT_PREFIX}{seg_id:08d}.log"

    def _segment_ids(self) -> list[int]:
        out = []
        for p in self.path.iterdir():
            name = p.name
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(".log"):
                out.append(int(name[len(_SEGMENT_PREFIX) : -4]))
        return sorted(out)

    def _open_active(self, seg_id: int) -> None:
        self._active_id = seg_id
        # rapidslint: disable-next=RPD108,RPD115 -- long-lived append handle, closed in close()/_rotate; open-time plumbing, not a data seam — faults land on kvstore.put/get/fsync
        self._active = open(self._segment_path(seg_id), "ab")
        # rapidslint: disable-next=RPD108 -- segment read handle cached in _handles, closed in close()
        self._handles[seg_id] = open(self._segment_path(seg_id), "rb")

    def _recover(self) -> None:
        ids = self._segment_ids()
        for seg_id in ids:
            self._replay_segment(seg_id)
        next_id = (ids[-1] + 1) if ids else 0
        # Reuse the last segment if it has room, else start fresh.
        if ids and self._segment_path(ids[-1]).stat().st_size < self.segment_bytes:
            if ids[-1] in self._handles:
                self._handles[ids[-1]].close()
                del self._handles[ids[-1]]
            self._open_active(ids[-1])
        else:
            self._open_active(next_id)

    def _replay_segment(self, seg_id: int) -> None:
        path = self._segment_path(seg_id)
        valid_end = 0
        # rapidslint: disable-next=RPD115 -- recovery replay is the torn-write *detector*; faulting the detector would mask the kvstore.put faults it exists to repair
        with open(path, "rb") as fh:
            data = fh.read()
        off = 0
        while off < len(data):
            rec = self._parse_record(data, off)
            if rec is None:
                break  # torn tail
            key, value, tombstone, rec_len = rec
            if tombstone:
                self._index.pop(key, None)
            else:
                self._index[key] = (seg_id, off, rec_len)
            off += rec_len
            valid_end = off
        if valid_end < len(data):
            # Torn final record from a crash: truncate it away.
            with open(path, "ab") as fh:
                fh.truncate(valid_end)
        # rapidslint: disable-next=RPD108 -- segment read handle cached in _handles, closed in close()
        self._handles[seg_id] = open(path, "rb")

    @staticmethod
    def _parse_record(buf: bytes, off: int):
        if off + _HEADER.size > len(buf):
            return None
        crc, klen, vlen, tomb = _HEADER.unpack_from(buf, off)
        end = off + _HEADER.size + klen + vlen
        if end > len(buf):
            return None
        body = buf[off + 4 : end]
        if zlib.crc32(body) != crc:
            return None
        key = buf[off + _HEADER.size : off + _HEADER.size + klen]
        value = buf[off + _HEADER.size + klen : end]
        return key, value, bool(tomb), end - off

    def _append(self, key: bytes, value: bytes, tombstone: bool) -> tuple[int, int, int]:
        self._check_live()
        body = _HEADER.pack(0, len(key), len(value), int(tombstone))[4:] + key + value
        rec = struct.pack("<I", zlib.crc32(body)) + body
        if self.injector is not None:
            spec = self.injector.check(
                "kvstore.put", handled=("torn",),
                key=key.decode("utf-8", "replace"), tombstone=tombstone,
            )
            if spec is not None:
                self._torn_append(rec, spec, key)
        if self._active.tell() + len(rec) > self.segment_bytes and self._active.tell() > 0:
            self._roll_segment()
        off = self._active.tell()
        self._active.write(rec)
        self._active.flush()
        if self.injector is not None:
            self.injector.check(
                "kvstore.fsync", key=key.decode("utf-8", "replace"),
            )
        return self._active_id, off, len(rec)

    def _torn_append(self, rec: bytes, spec, key: bytes) -> None:
        """Write only a prefix of the record, then crash the store.

        Simulates a power cut mid-append: the torn tail is exactly what
        :meth:`_replay_segment` detects and truncates on the next open.
        The store refuses further operations until reopened.
        """
        from ..chaos import InjectedFault

        cut = min(len(rec) - 1, int(len(rec) * min(max(spec.magnitude, 0.0), 1.0)))
        if cut > 0:
            self._active.write(rec[:cut])
            self._active.flush()
        self._crash()
        raise InjectedFault(
            "kvstore.put", "torn", {"key": key.decode("utf-8", "replace")},
        )

    def _crash(self) -> None:
        """Drop all handles and refuse further ops until reopen."""
        self._crashed = True
        if self._active is not None:
            self._active.close()
            self._active = None
        for fh in self._handles.values():
            fh.close()
        self._handles.clear()

    def _check_live(self) -> None:
        if self._crashed or self._active is None:
            raise RuntimeError(
                "KVStore crashed or closed; reopen the directory to recover"
            )

    def _roll_segment(self) -> None:
        self._active.close()
        self._open_active(self._active_id + 1)

    # -- public API --------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Durably store ``value`` under ``key`` (overwrites)."""
        self._check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("value must be bytes")
        with self._lock:
            self._index[key] = self._append(bytes(key), bytes(value), False)

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        """Fetch the latest value for ``key`` or ``default`` if absent."""
        with self._lock:
            return self._get_locked(key, default)

    def _get_locked(self, key: bytes, default: bytes | None) -> bytes | None:
        # Lock held by the caller (scan reads its batch under one
        # acquisition).
        self._check_key(key)
        self._check_live()
        if self.injector is not None:
            self.injector.check(
                "kvstore.get", key=bytes(key).decode("utf-8", "replace"),
            )
        loc = self._index.get(bytes(key))
        if loc is None:
            return default
        seg_id, off, rec_len = loc
        fh = self._handles[seg_id]
        fh.seek(off)
        buf = fh.read(rec_len)
        rec = self._parse_record(buf, 0)
        if rec is None:
            raise CorruptionError(f"record for {key!r} failed CRC check")
        return rec[1]

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        self._check_key(key)
        key = bytes(key)
        with self._lock:
            if key not in self._index:
                return False
            self._append(key, b"", True)
            del self._index[key]
            return True

    def scan(self, prefix: bytes = b"") -> list[tuple[bytes, bytes]]:
        """All live (key, value) pairs with the given prefix, key-sorted."""
        with self._lock:
            keys = sorted(k for k in self._index if k.startswith(prefix))
            return [(k, self._get_locked(k, None)) for k in keys]

    def keys(self, prefix: bytes = b"") -> list[bytes]:
        with self._lock:
            return sorted(k for k in self._index if k.startswith(prefix))

    def __contains__(self, key: bytes) -> bool:
        return bytes(key) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        with self._lock:
            if self._active is not None:
                self._active.close()
                self._active = None
            for fh in self._handles.values():
                fh.close()
            self._handles.clear()

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _check_key(key) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("key must be bytes")
        if len(key) == 0:
            raise ValueError("empty keys are not allowed")
