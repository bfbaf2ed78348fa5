"""A single geo-distributed storage system (endpoint).

Models one independently operated site: a Globus-Connect-Server-fronted
HPC storage system with a WAN bandwidth estimate and an availability
state.  Fragment payloads are held in an in-memory object store keyed by
``(object_name, level, fragment_index)``; at paper scale the benches use
*simulated* fragments (byte counts without payloads), which the store
also accepts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..formats import crc32

__all__ = [
    "FRAGMENT_ERRORS",
    "StorageSystem",
    "StoredFragment",
    "UnavailableError",
    "CorruptFragmentError",
]

#: Everything one fragment read or write may fail with: absent
#: (``KeyError``), unreadable (``ValueError``, ``OSError``), down
#: (:class:`UnavailableError`) or corrupt (:class:`CorruptFragmentError`)
#: — the erasure every reader retries and then routes around.
FRAGMENT_ERRORS = (KeyError, ValueError, OSError, RuntimeError)


@dataclass
class StoredFragment:
    """One fragment resident on a storage system.

    ``payload`` is ``None`` for simulated (size-only) fragments.
    """

    object_name: str
    level: int
    index: int
    nbytes: int
    payload: bytes | None = None
    checksum: int | None = None
    #: CRC-32 of ``payload`` as the read that produced this fragment
    #: (or the at-rest rot that made these bytes) computed it; ``None``
    #: on fragments nothing has hashed.  Never the recorded checksum of
    #: other bytes.
    verified_crc: int | None = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.object_name, self.level, self.index)

    def verify(self, expected: int) -> bool:
        """True iff the payload's CRC-32 is ``expected``, hashing only
        when the read that produced the fragment did not already."""
        crc = self.verified_crc
        return (crc32(self.payload) if crc is None else crc) == expected


@dataclass
class StorageSystem:
    """An independently operated storage endpoint.

    Parameters
    ----------
    system_id:
        Stable integer id (index into the cluster).
    name:
        Human-readable endpoint name.
    bandwidth:
        Estimated WAN bandwidth to/from the user's site, in bytes/second
        (the paper derives these from Globus transfer logs; ours come
        from :mod:`repro.transfer.logs`).
    available:
        False while the system is failed or under maintenance.
    """

    system_id: int
    name: str
    bandwidth: float
    available: bool = True
    #: Optional chaos seam (see :mod:`repro.chaos`): consulted at every
    #: fragment read/write when set; ``None`` costs one identity check.
    injector: object | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _store: dict[tuple[str, int, int], StoredFragment] = field(
        default_factory=dict, repr=False
    )
    #: Serialises store mutation against snapshot reads: the pipelined
    #: preparation path and the threaded tile helpers may place
    #: fragments from worker threads while another thread lists
    #: ``resident()`` or totals ``used_bytes``.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def put(self, frag: StoredFragment) -> None:
        """Store a fragment. Refuses while unavailable. Thread-safe."""
        if not self.available:
            raise UnavailableError(f"system {self.name} is unavailable")
        if self.injector is not None:
            self.injector.check(
                "storage.write", system_id=self.system_id,
                object_name=frag.object_name, level=frag.level,
                index=frag.index,
            )
        with self._lock:
            self._store[frag.key] = frag

    def get(self, object_name: str, level: int, index: int) -> StoredFragment:
        """Fetch a fragment, verifying its checksum when one is recorded.

        Raises KeyError if absent, UnavailableError if down, and
        :class:`CorruptFragmentError` when the payload — after the chaos
        seam's wire effects — no longer matches the checksum recorded at
        put time: corrupt bytes never reach the erasure decoder.
        """
        if not self.available:
            raise UnavailableError(f"system {self.name} is unavailable")
        with self._lock:
            frag = self._store[(object_name, level, index)]
        if self.injector is not None and frag.payload is not None:
            # Corruption/truncation mutates a copy: the resident
            # fragment survives intact, like bit rot on the wire.
            payload = self.injector.filter_payload(
                "storage.read", frag.payload, system_id=self.system_id,
                object_name=object_name, level=level, index=index,
            )
            if payload is not frag.payload:
                frag = StoredFragment(
                    object_name, level, index, len(payload), payload,
                    checksum=frag.checksum,
                )
        elif self.injector is not None:
            self.injector.check(
                "storage.read", system_id=self.system_id,
                object_name=object_name, level=level, index=index,
            )
        if frag.payload is not None and frag.checksum is not None:
            crc = crc32(frag.payload)
            if crc != frag.checksum:
                raise CorruptFragmentError(
                    f"fragment ({object_name!r}, level {level}, index {index}) "
                    f"on system {self.name} failed its checksum"
                )
            # Hashed in this very call, so never stale — even on the
            # resident object, whose payload may rot between reads.
            frag.verified_crc = crc
        return frag

    def get_verified(
        self, object_name: str, level: int, index: int, crc: int | None,
    ) -> StoredFragment:
        """:meth:`get`, then :class:`CorruptFragmentError` unless the
        payload matches ``crc``, the checksum the caller's record
        committed (reusing the read's CRC).  Size-only fragments and
        ``crc=None`` are returned as read."""
        frag = self.get(object_name, level, index)
        if crc is not None and frag.payload is not None and not frag.verify(crc):
            raise CorruptFragmentError(
                f"fragment ({object_name!r}, level {level}, index {index}) "
                f"on system {self.name} does not match its recorded checksum"
            )
        return frag

    def has(self, object_name: str, level: int, index: int) -> bool:
        return self.stored_size(object_name, level, index) is not None

    def stored_size(self, object_name: str, level: int, index: int) -> int | None:
        """Bytes one resident fragment occupies; ``None`` when absent."""
        with self._lock:
            frag = self._store.get((object_name, level, index))
        return None if frag is None else frag.nbytes

    def delete(self, object_name: str, level: int, index: int) -> None:
        if not self.available:
            raise UnavailableError(f"system {self.name} is unavailable")
        with self._lock:
            del self._store[(object_name, level, index)]

    def fragment_keys(self) -> list[tuple[str, int, int]]:
        """Keys of all resident fragments."""
        return [row[:3] for row in self.resident()]

    def resident(self) -> list[tuple[str, int, int, int]]:
        """``(stored name, level, index, bytes)`` per resident fragment
        (readable while down: this is inventory, not data access)."""
        with self._lock:
            return [(*key, f.nbytes) for key, f in self._store.items()]

    @property
    def used_bytes(self) -> int:
        """Total bytes resident (counted even while unavailable)."""
        with self._lock:
            return sum(f.nbytes for f in self._store.values())

    def fail(self) -> None:
        """Take the system down (outage or scheduled maintenance)."""
        self.available = False

    def restore(self) -> None:
        """Bring the system back; resident fragments survive the outage."""
        self.available = True


class UnavailableError(RuntimeError):
    """Raised when an operation targets a failed/maintenance system."""


class CorruptFragmentError(RuntimeError):
    """A fragment payload no longer matches its recorded checksum.

    Subclasses :class:`RuntimeError` so every reader's erasure handling
    (:data:`FRAGMENT_ERRORS`) absorbs it like any other
    per-fragment loss; the scrubber catches it explicitly to classify
    at-rest damage as ``corrupt``.
    """
