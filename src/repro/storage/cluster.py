"""The geo-distributed storage cluster: n independently operated systems.

Owns fragment placement (one fragment per system per level, as in the
paper), failure injection, and the fragment inventory queries the
gathering optimiser needs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .system import StorageSystem, StoredFragment, UnavailableError

__all__ = ["StorageCluster", "Inventory"]


class Inventory:
    """Point-in-time snapshot of which system holds which fragment,
    built from every system's names-only ``resident()`` listing.

    A scrub or repair pass plans from one; the cluster lookups are views
    over a fresh one.  Never kept across passes: at-rest fault
    infliction, another process or a directory restored from tape change
    the store behind any cache, and a fresh listing cannot be stale.
    """

    def __init__(self, systems, stored_name=str) -> None:
        # Object name -> the name its fragments are stored under.
        self._stored_name = stored_name
        self.available = {s.system_id for s in systems if s.available}
        #: Per system id (down ones too), what ``used_bytes`` returned.
        self.used_bytes = {s.system_id: 0 for s in systems}
        # (stored name, level) -> index -> {system id: bytes}
        self._copies: dict[tuple[str, int], dict[int, dict[int, int]]] = {}
        for s in systems:
            for name, level, index, size in s.resident():
                self._copy(name, level, index)[s.system_id] = size
                self.used_bytes[s.system_id] += size

    def _copy(self, stored: str, level: int, index: int) -> dict[int, int]:
        return self._copies.setdefault((stored, level), {}).setdefault(index, {})

    def holders(self, object_name: str, level: int) -> dict[int, list[int]]:
        """Fragment index -> ascending ids of the available systems
        holding a copy."""
        stripe = self._copies.get((self._stored_name(object_name), level), {})
        found = {
            i: sorted(self.available & copies.keys()) for i, copies in stripe.items()
        }
        return {i: sids for i, sids in found.items() if sids}

    def locate(self, object_name: str, level: int) -> dict[int, int]:
        """Fragment index -> system id; of duplicates, the highest."""
        holders = self.holders(object_name, level)
        return {i: sids[-1] for i, sids in holders.items()}

    def refresh(self, system, object_name: str, level: int, index: int) -> None:
        """Re-probe one fragment on one system after a write or delete
        there, failed ones too (a torn write leaves a partial file)."""
        sid = system.system_id
        copies = self._copy(self._stored_name(object_name), level, index)
        size = system.stored_size(object_name, level, index)
        self.used_bytes[sid] += (size or 0) - copies.pop(sid, 0)
        if size is not None:
            copies[sid] = size


class StorageCluster:
    """A set of geo-distributed storage systems.

    Parameters
    ----------
    bandwidths:
        Per-system WAN bandwidth estimates (bytes/s); the cluster size n
        is ``len(bandwidths)``.
    names:
        Optional endpoint names (defaults to ``gcs-00`` ... ``gcs-NN``).
    """

    def __init__(
        self,
        bandwidths: Sequence[float],
        names: Sequence[str] | None = None,
    ) -> None:
        if len(bandwidths) < 2:
            raise ValueError("a cluster needs at least 2 systems")
        if any(b <= 0 for b in bandwidths):
            raise ValueError("bandwidths must be positive")
        if names is None:
            names = [f"gcs-{i:02d}" for i in range(len(bandwidths))]
        if len(names) != len(bandwidths):
            raise ValueError("names and bandwidths must align")
        self.systems = [
            self._new_system(i, nm, float(bw))
            for i, (nm, bw) in enumerate(zip(names, bandwidths))
        ]

    def _new_system(self, system_id: int, name: str, bandwidth: float):
        return StorageSystem(system_id=system_id, name=name, bandwidth=bandwidth)

    # -- basic queries --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.systems)

    @property
    def bandwidths(self) -> np.ndarray:
        return np.array([s.bandwidth for s in self.systems])

    def available_ids(self) -> list[int]:
        return [s.system_id for s in self.systems if s.available]

    def failed_ids(self) -> list[int]:
        return [s.system_id for s in self.systems if not s.available]

    def __getitem__(self, system_id: int) -> StorageSystem:
        return self.systems[system_id]

    # -- failure injection -----------------------------------------------

    def attach_injector(self, injector) -> None:
        """Attach (or clear, with ``None``) a chaos
        :class:`~repro.chaos.FaultInjector` on every system."""
        for s in self.systems:
            s.injector = injector

    def fail(self, system_ids: Iterable[int]) -> None:
        """Take ``system_ids`` down.

        Raises ``ValueError``, taking none down, if an id is outside
        ``range(n)``.
        """
        system_ids = list(system_ids)
        for sid in system_ids:
            if not 0 <= sid < self.n:
                raise ValueError(
                    f"system id {sid} is out of range for a cluster of "
                    f"n={self.n} systems"
                )
        for sid in system_ids:
            self.systems[sid].fail()

    def restore_all(self) -> None:
        for s in self.systems:
            s.restore()

    # -- inventory --------------------------------------------------------

    def inventory(self) -> Inventory:
        """A point-in-time snapshot of what every system holds."""
        return Inventory(self.systems)

    def locate(self, object_name: str, level: int) -> dict[int, int]:
        """Map fragment index -> system id for one object level."""
        return self.inventory().locate(object_name, level)

    def fetch(
        self, object_name: str, level: int, index: int,
        *, home: int | None = None, crc: int | None = None,
    ) -> StoredFragment:
        """Fetch a fragment with one verified read
        (:meth:`~repro.storage.system.StorageSystem.get_verified` against
        ``crc``, the checksum the caller's record committed) on
        ``home``, the system that record places it on.  Only when there
        is no home, or it is down or no longer holds the fragment, are
        the other available systems scanned, in id order, for a copy."""
        if home is not None:
            try:
                return self.systems[home].get_verified(
                    object_name, level, index, crc
                )
            except (KeyError, UnavailableError):
                pass
        for s in self.systems:
            if (s.system_id != home and s.available
                    and s.has(object_name, level, index)):
                return s.get_verified(object_name, level, index, crc)
        raise KeyError(
            f"fragment ({object_name!r}, level {level}, index {index}) "
            "not reachable on any available system"
        )

    def total_stored_bytes(self) -> int:
        return sum(s.used_bytes for s in self.systems)
