"""The data-gathering MINLP model (Eq. 10 of the paper).

Decision variables: binary x[i, j] — pull a fragment of level j from
storage system i.  Objective: the average transfer time under the
equal-share bandwidth model,

    sum_ij ( x_ij * frag_j * c_i / B_i ) / sum_ij x_ij,
    c_i = sum_j x_ij  (concurrent requests to system i)

Constraints: exactly ``k_j = n - m_j`` fragments per recoverable level
(an extra request to an idle system can lower the average without
helping the restore, so "at least k_j" would reward padding); nothing
from unavailable systems.  The model also exposes a ``makespan``
objective (slowest transfer), which is what the end-to-end latency
actually measures — the ablation bench compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GatheringModel"]


@dataclass
class GatheringModel:
    """Feasibility, objective, and repair for the gathering problem.

    Parameters
    ----------
    fragment_sizes:
        Per-level fragment size in bytes (s_j / (n - m_j)).
    needed:
        Per-level fragment count k_j = n - m_j.  Levels that cannot be
        recovered (k_j > #available systems) must be excluded by the
        caller before building the model.
    bandwidths:
        Per-system bandwidth estimates, bytes/s (length n).
    available:
        Boolean mask of reachable systems (length n).
    objective:
        ``"average"`` (the paper's Eq. 10) or ``"makespan"``.
    """

    fragment_sizes: np.ndarray
    needed: np.ndarray
    bandwidths: np.ndarray
    available: np.ndarray
    objective: str = "average"

    def __post_init__(self) -> None:
        self.fragment_sizes = np.asarray(self.fragment_sizes, dtype=np.float64)
        self.needed = np.asarray(self.needed, dtype=np.int64)
        self.bandwidths = np.asarray(self.bandwidths, dtype=np.float64)
        self.available = np.asarray(self.available, dtype=bool)
        if self.fragment_sizes.shape != self.needed.shape:
            raise ValueError("fragment_sizes and needed must align")
        if self.bandwidths.shape != self.available.shape:
            raise ValueError("bandwidths and available must align")
        if np.any(self.fragment_sizes < 0) or np.any(self.bandwidths <= 0):
            raise ValueError("sizes must be >= 0 and bandwidths > 0")
        if np.any(self.needed < 1):
            raise ValueError("each included level needs at least 1 fragment")
        if np.any(self.needed > self.available.sum()):
            raise ValueError(
                "a level needs more fragments than there are available "
                "systems; exclude unrecoverable levels before modelling"
            )
        if self.objective not in ("average", "makespan"):
            raise ValueError(f"unknown objective {self.objective!r}")

    @property
    def n(self) -> int:
        return len(self.bandwidths)

    @property
    def levels(self) -> int:
        return len(self.needed)

    def feasible(self, x: np.ndarray) -> bool:
        """Check the Eq. 10 constraints."""
        x = np.asarray(x)
        if x.shape != (self.n, self.levels):
            return False
        if np.any(x[~self.available, :]):
            return False
        return bool(np.all(x.sum(axis=0) == self.needed))

    def transfer_times(self, x: np.ndarray) -> np.ndarray:
        """Per-selected-fragment transfer times (0 where x == 0)."""
        x = np.asarray(x, dtype=np.float64)
        per_system = x.sum(axis=1)  # c_i
        rate = np.zeros(self.n)
        np.divide(self.bandwidths, per_system, out=rate, where=per_system > 0)
        with np.errstate(divide="ignore"):
            t = x * self.fragment_sizes[None, :] / np.where(
                rate[:, None] > 0, rate[:, None], np.inf
            )
        return t

    def evaluate(self, x: np.ndarray) -> float:
        """Objective value; +inf for infeasible selections."""
        if not self.feasible(x):
            return float("inf")
        t = self.transfer_times(x)
        total_requests = np.asarray(x).sum()
        if self.objective == "average":
            return float(t.sum() / total_requests)
        return float(t.max())

    # -- constructing / repairing candidate selections --------------------

    def naive_solution(self) -> np.ndarray:
        """The paper's greedy baseline: per level, take the k_j fastest
        available systems (ignoring contention); equal bandwidths go to
        the lowest id, a data fragment before parity."""
        x = np.zeros((self.n, self.levels), dtype=np.int8)
        avail = np.nonzero(self.available)[0]
        order = avail[np.argsort(-self.bandwidths[avail], kind="stable")]
        for j in range(self.levels):
            x[order[: self.needed[j]], j] = 1
        return x

    def random_solution(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random feasible selection (exactly k_j per level)."""
        x = np.zeros((self.n, self.levels), dtype=np.int8)
        avail = np.nonzero(self.available)[0]
        for j in range(self.levels):
            pick = rng.choice(avail, size=self.needed[j], replace=False)
            x[pick, j] = 1
        return x

    def repair(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Make a selection feasible: zero unavailable rows, then add the
        least-loaded fast systems to under-provisioned levels and drop
        the most-loaded slow ones from over-provisioned levels."""
        x = np.array(x, dtype=np.int8)
        x[~self.available, :] = 0
        for j in range(self.levels):
            surplus = int(x[:, j].sum()) - int(self.needed[j])
            if surplus == 0:
                continue
            candidates = np.nonzero(self.available & (x[:, j] == (surplus > 0)))[0]
            # Keep systems that are fast and not yet busy.
            load = x[candidates].sum(axis=1)
            order = np.argsort(self.bandwidths[candidates] / (1.0 + load))
            if surplus > 0:
                x[candidates[order[:surplus]], j] = 0
            else:
                x[candidates[order[::-1][:-surplus]], j] = 1
        return x

    def local_search(self, x: np.ndarray, *, max_rounds: int = 20) -> np.ndarray:
        """First-improvement swap search: move one level's request from
        system a to unused system b while it lowers the objective."""
        x = np.array(x, dtype=np.int8)
        best = self.evaluate(x)
        for _ in range(max_rounds):
            improved = False
            for j in range(self.levels):
                used = np.nonzero(x[:, j] == 1)[0]
                free = np.nonzero(self.available & (x[:, j] == 0))[0]
                for a in used:
                    for b in free:
                        x[a, j], x[b, j] = 0, 1
                        val = self.evaluate(x)
                        if val < best - 1e-12:
                            best = val
                            improved = True
                            break
                        x[a, j], x[b, j] = 1, 0
                    if improved:
                        break
                if improved:
                    break
            if not improved:
                return x
        return x
