"""Adaptive bandwidth estimation for the gathering optimiser (§4.3).

Observed transfer throughputs refresh the ``B_i`` parameters of the
Eq. 10 model, so the optimiser adapts when WAN bandwidth drifts away
from the historical Globus-log averages.  :class:`BandwidthTracker` is
that loop: its ``observe`` is the only writer of the catalog's EWMA, and
it blends the static prior with that EWMA (the prior alone until
something is observed) for any gathering strategy.
"""

from __future__ import annotations

import numpy as np

from ..metadata import MetadataCatalog
from .gathering import GatheringOutcome, exact_strategy

__all__ = ["BandwidthTracker", "adaptive_strategy"]


class BandwidthTracker:
    """Blends prior bandwidth estimates with observed transfer throughput.

    Parameters
    ----------
    catalog:
        The metadata catalog that keeps the observed EWMA.
    prior:
        Static per-system estimates used until observations arrive
        (the §5.1.2 log-derived profile).
    staleness_horizon:
        Age (in :meth:`tick` units) at which a system's EWMA estimate
        has decayed to ``1/e`` of its distance from the prior.  Without
        one (the default), an estimate pins forever — a system idle for
        a month still reports the throughput of its last transfer.  With
        one, ``estimates()`` blends ``prior + (ewma - prior) * exp(-age
        / horizon)``, so a long-idle system decays monotonically back
        toward its prior.  The clock is advanced explicitly via
        :meth:`tick` (the control plane ticks once per epoch); there is
        no wall clock, so replays stay deterministic.
    """

    def __init__(
        self,
        catalog: MetadataCatalog,
        prior: np.ndarray,
        *,
        staleness_horizon: float | None = None,
    ) -> None:
        prior = np.asarray(prior, dtype=np.float64)
        if not np.all(np.isfinite(prior) & (prior > 0)):
            raise ValueError("prior bandwidths must be finite and positive")
        if staleness_horizon is not None and staleness_horizon <= 0:
            raise ValueError("staleness_horizon must be positive")
        self.catalog = catalog
        self.prior = prior
        self.staleness_horizon = staleness_horizon
        self._clock = 0.0
        self._last_seen: dict[int, float] = {}

    @property
    def n(self) -> int:
        return len(self.prior)

    def observe(self, system_id: int, nbytes: float, seconds: float) -> None:
        """Record one completed transfer's user-perceived throughput."""
        if not 0 <= system_id < self.n:
            raise ValueError(f"unknown system {system_id}")
        if nbytes <= 0 or seconds <= 0:
            raise ValueError("need positive bytes and duration")
        # the catalog rejects the non-finite rate a NaN or inf makes
        self.catalog.record_throughput(system_id, nbytes / seconds)
        self._last_seen[system_id] = self._clock

    def tick(self) -> None:
        """Advance the staleness clock (one call per epoch/round)."""
        self._clock += 1.0

    def age(self, system_id: int) -> float:
        """Ticks since the last observation of ``system_id`` (0 when the
        history predates this tracker instance: trust it until idle)."""
        return self._clock - self._last_seen.get(system_id, self._clock)

    def estimates(self) -> np.ndarray:
        """Current per-system estimates: EWMA where history exists
        (decayed toward the prior by staleness), otherwise the prior."""
        out = self.prior.copy()
        for i in range(self.n):
            est = self.catalog.bandwidth_estimate(i)
            if est is None:
                continue
            if self.staleness_horizon is not None:
                weight = float(np.exp(-self.age(i) / self.staleness_horizon))
                est = self.prior[i] + (est - self.prior[i]) * weight
            out[i] = est
        return out

    def estimation_error(self, true_bandwidths: np.ndarray) -> float:
        """Mean relative estimation error against a ground truth."""
        est = self.estimates()
        true = np.asarray(true_bandwidths, dtype=np.float64)
        return float(np.mean(np.abs(est - true) / true))


def adaptive_strategy(
    tracker: BandwidthTracker,
    sizes: list[float],
    ms: list[int],
    failed: list[int] | None = None,
    *,
    max_levels: int | None = None,
) -> GatheringOutcome:
    """The exact strategy running on the tracker's live estimates."""
    return exact_strategy(
        sizes, ms, tracker.estimates(), failed or [], max_levels=max_levels
    )
