"""Failure models for geo-distributed storage systems.

The paper assumes independent outages with per-system probability ``p``
(set to 0.01 from the OLCF 2020 operational assessment).  Besides the
i.i.d. Bernoulli model used by the analytic availability formulas, this
module provides a scheduled-maintenance model and a correlated
(region-shared-fate) model for failure-injection tests — both stress the
qualitative claim that upper levels survive more concurrent outages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BernoulliFailureModel",
    "MaintenanceSchedule",
    "CorrelatedFailureModel",
]


@dataclass
class BernoulliFailureModel:
    """Independent outages: each system down with probability ``p``.

    This is the model behind Eqs. 1, 2, 4 and 5 in the paper.
    """

    p: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be a probability, got {self.p}")
        self._rng = np.random.default_rng(self.seed)

    def sample(self, n: int) -> np.ndarray:
        """Boolean mask of length n; True = system failed."""
        return self._rng.random(n) < self.p

    def sample_failed_ids(self, n: int) -> list[int]:
        return np.nonzero(self.sample(n))[0].tolist()



@dataclass
class MaintenanceSchedule:
    """Deterministic maintenance windows: system -> list of (start, end).

    Times are in arbitrary simulation units; a system is unavailable at
    time ``t`` iff some window contains it.
    """

    windows: dict[int, list[tuple[float, float]]] = field(default_factory=dict)

    def add_window(self, system_id: int, start: float, end: float) -> None:
        if end <= start:
            raise ValueError("maintenance window must have end > start")
        self.windows.setdefault(system_id, []).append((start, end))

    def down_at(self, t: float) -> list[int]:
        """Systems unavailable at time ``t`` (windows are ``[start, end)``)."""
        return sorted(
            sid
            for sid, ws in self.windows.items()
            if any(s <= t < e for s, e in ws)
        )


@dataclass
class CorrelatedFailureModel:
    """Region-shared-fate failures.

    Systems are partitioned into regions; with probability ``p_region`` a
    whole region fails together, and surviving systems additionally fail
    independently with ``p_single``.  Violates the independence
    assumption of the analytic model on purpose — used to test that the
    pipeline degrades gracefully, not to reproduce paper numbers.
    """

    regions: list[list[int]]
    p_region: float
    p_single: float
    seed: int | None = None

    def __post_init__(self) -> None:
        for prob in (self.p_region, self.p_single):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"invalid probability {prob}")
        seen: set[int] = set()
        for region in self.regions:
            for sid in region:
                if sid in seen:
                    raise ValueError(f"system {sid} appears in two regions")
                seen.add(sid)
        self._rng = np.random.default_rng(self.seed)

    def sample_failed_ids(self, n: int) -> list[int]:
        failed: set[int] = set()
        for region in self.regions:
            if self._rng.random() < self.p_region:
                failed.update(region)
        for sid in range(n):
            if sid not in failed and self._rng.random() < self.p_single:
                failed.add(sid)
        return sorted(failed)
