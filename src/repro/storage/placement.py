"""Fragment placement policies.

The paper's layout is one EC-fragment per storage system per level,
which assumes every system can absorb its share.  Real geo-distributed
sites have unequal free capacity, and a placement that ignores it
concentrates load on the biggest sites — hurting both balance and the
independence assumption behind the availability math.  This module adds
capacity-aware placement:

* :class:`CapacityTracker` — per-system capacity/usage accounting over a
  cluster;
* :func:`plan_placement` — choose which ``n_frag <= n`` systems host a
  level's fragments, balancing post-placement utilisation;
* :func:`rebalance_moves` — propose fragment moves that shrink the
  utilisation spread (greedy, move-count bounded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import StorageCluster
from .system import FRAGMENT_ERRORS

__all__ = [
    "CapacityTracker",
    "plan_placement",
    "rebalance_moves",
    "apply_moves",
    "CapacityError",
]


class CapacityError(RuntimeError):
    """Raised when fragments cannot fit under the capacity constraints."""


@dataclass
class CapacityTracker:
    """Tracks per-system capacity and committed bytes for a cluster.

    ``used()`` counts resident bytes *plus* pending commitments —
    placements and rebalance moves that have been planned but not yet
    applied.  Planners register their proposals with :meth:`commit`, so
    successive planning calls against one tracker see each other's
    reservations instead of overcommitting the same free space.
    """

    cluster: StorageCluster
    capacities: np.ndarray
    _pending: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.capacities = np.asarray(self.capacities, dtype=np.float64)
        if len(self.capacities) != self.cluster.n:
            raise ValueError("capacities must align with the cluster")
        if np.any(self.capacities <= 0):
            raise ValueError("capacities must be positive")
        self._pending = np.zeros(self.cluster.n, dtype=np.float64)

    def resident(self) -> np.ndarray:
        """Bytes physically stored per system (no commitments)."""
        return np.array(
            [s.used_bytes for s in self.cluster.systems], dtype=np.float64
        )

    def used(self) -> np.ndarray:
        return self.resident() + self._pending

    def free(self) -> np.ndarray:
        return self.capacities - self.used()

    def utilization(self) -> np.ndarray:
        return self.used() / self.capacities

    def fits(self, system_id: int, nbytes: float) -> bool:
        return self.free()[system_id] >= nbytes

    # -- pending commitments ------------------------------------------------

    @property
    def pending(self) -> np.ndarray:
        """Planned-but-unapplied byte deltas per system (signed)."""
        return self._pending.copy()

    def commit(self, system_id: int, nbytes: float) -> None:
        """Reserve (or, with a negative delta, unreserve) planned bytes."""
        self._pending[system_id] += nbytes

    def settle(self, system_id: int, nbytes: float) -> None:
        """A planned transfer of ``nbytes`` onto/off ``system_id`` became
        physical: drop its reservation (the bytes now show up — or no
        longer show up — in ``resident()``)."""
        self._pending[system_id] -= nbytes

    def clear_commitments(self) -> None:
        self._pending[:] = 0.0


def plan_placement(
    tracker: CapacityTracker,
    fragment_bytes: float,
    n_fragments: int,
    *,
    available_only: bool = True,
    exclude: "set[int] | frozenset[int] | tuple | list" = (),
    commit: bool = False,
) -> list[int]:
    """Pick the systems for one level's fragments (one fragment each).

    Greedy balanced fill: repeatedly assign the next fragment to the
    system with the lowest *post-placement* utilisation that still has
    room.  ``exclude`` removes systems from consideration (the repair
    engine uses it to keep a regenerated fragment off systems already
    hosting one of the same stripe); ``commit=True`` registers the
    chosen placements as pending bytes on the tracker so later planning
    calls cannot hand out the same space.  Raises
    :class:`CapacityError` when fewer than ``n_fragments`` systems can
    absorb a fragment.
    """
    if n_fragments < 1:
        raise ValueError("need at least one fragment")
    if n_fragments > tracker.cluster.n:
        raise CapacityError(
            f"{n_fragments} fragments exceed the {tracker.cluster.n}-system cluster"
        )
    used = tracker.used()
    caps = tracker.capacities
    excluded = set(int(i) for i in exclude)
    eligible = [
        s.system_id
        for s in tracker.cluster.systems
        if (s.available or not available_only) and s.system_id not in excluded
    ]
    chosen: list[int] = []
    for _ in range(n_fragments):
        best, best_util = None, np.inf
        for sid in eligible:
            if sid in chosen:
                continue
            if caps[sid] - used[sid] < fragment_bytes:
                continue
            util = (used[sid] + fragment_bytes) / caps[sid]
            if util < best_util:
                best, best_util = sid, util
        if best is None:
            raise CapacityError(
                f"only {len(chosen)} of {n_fragments} fragments fit "
                "under current capacities"
            )
        chosen.append(best)
        used[best] += fragment_bytes
    if commit:
        for sid in chosen:
            tracker.commit(sid, fragment_bytes)
    return chosen


def rebalance_moves(
    tracker: CapacityTracker,
    *,
    max_moves: int = 16,
    threshold: float = 0.05,
    commit: bool = True,
) -> list[tuple[tuple[str, int, int], int, int]]:
    """Propose fragment moves that reduce the utilisation spread.

    Returns ``[(fragment_key, from_system, to_system), ...]``; each move
    takes a fragment from the most-utilised *available* system to the
    least-utilised one with room, stopping when the spread falls below
    ``threshold`` or ``max_moves`` is reached.  Moves honour the
    one-fragment-per-system rule (a system never receives a fragment of
    a level it already hosts).

    ``commit=True`` (the default) registers each proposal's byte deltas
    as pending commitments on the tracker, so a ``plan_placement`` call
    issued mid-plan sees the space these moves will consume and free;
    :func:`apply_moves` settles the commitments as it executes them.
    """
    if max_moves < 0:
        raise ValueError("max_moves must be >= 0")
    moves = []
    used = tracker.used()
    caps = tracker.capacities
    available = np.array([s.available for s in tracker.cluster.systems])
    # Working copy of each system's resident fragment keys.
    resident = {
        s.system_id: {f.key: f.nbytes for f in s._store.values()}
        for s in tracker.cluster.systems
        if s.available
    }
    for _ in range(max_moves):
        utils = used / caps
        # Unavailable systems can neither donate nor receive: mask them
        # out of both ends instead of letting an offline hot spot stall
        # the whole plan.
        donor_utils = np.where(available, utils, -np.inf)
        hot = int(np.argmax(donor_utils))
        reachable = utils[available]
        spread = float(reachable.max() - reachable.min()) if reachable.size else 0.0
        if spread < threshold or hot not in resident or not resident[hot]:
            break
        # Pick the hot system's largest fragment that fits somewhere colder.
        candidates = sorted(
            resident[hot].items(), key=lambda kv: -kv[1]
        )
        moved = False
        for key, nbytes in candidates:
            obj, level, _ = key
            order = np.argsort(utils)
            for cold in order:
                cold = int(cold)
                if cold == hot or cold not in resident:
                    continue
                if caps[cold] - used[cold] < nbytes:
                    continue
                if any(
                    k[0] == obj and k[1] == level for k in resident[cold]
                ):
                    continue  # one fragment of a level per system
                if (used[hot] - nbytes) / caps[hot] < (used[cold] + nbytes) / caps[cold]:
                    continue  # the move would just swap who is hot
                moves.append((key, hot, cold))
                used[hot] -= nbytes
                used[cold] += nbytes
                if commit:
                    tracker.commit(hot, -nbytes)
                    tracker.commit(cold, nbytes)
                resident[cold][key] = nbytes
                del resident[hot][key]
                moved = True
                break
            if moved:
                break
        if not moved:
            break
    return moves


def apply_moves(
    tracker: CapacityTracker,
    moves: list[tuple[tuple[str, int, int], int, int]],
) -> int:
    """Execute proposed moves on the tracker's cluster.

    Each fragment is read from its source (through the chaos seam and
    checksum verification — corrupt bytes are never propagated), written
    to the destination, deleted at the source, and its pending
    commitments settled.  Returns the number of moves applied; the
    caller records the new homes.  A move whose source read fails is
    skipped with its reservation left in place (the scrubber classifies
    the damage on its next sweep; call ``tracker.clear_commitments()``
    when the planning session ends).
    """
    cluster = tracker.cluster
    applied = 0
    for (obj, level, index), src, dst in moves:
        try:
            frag = cluster[src].get(obj, level, index)
        except FRAGMENT_ERRORS:
            continue
        cluster[dst].put(frag)
        cluster[src].delete(obj, level, index)
        tracker.settle(src, -frag.nbytes)
        tracker.settle(dst, frag.nbytes)
        applied += 1
    return applied
