"""Drift observation: when does the world differ enough to re-solve?

The FT configuration an object was prepared with is optimal for the
parameters measured *then* — per-system outage probability ``p``, the
overhead budget ``omega``, and (through the budget boost for hot data)
access patterns.  Geo-distributed reality drifts: failure rates change
per region, WAN links degrade, one dataset suddenly becomes popular.

This module supplies the control loop's sensors:

* :class:`AvailabilityEstimator` — per-system outage-probability EWMA
  over observed epoch outcomes, the drifted ``p`` vector fed to the
  heterogeneous (Poisson-binomial) MINLP re-solve;
* :class:`DriftPolicy` — the thresholds and budgets that decide when an
  observation becomes an *action*;
* :func:`p_drift` / :func:`hot_objects` — the detection predicates the
  :class:`~repro.control.operator.ReconfigOperator` evaluates each epoch.

Everything here is deterministic given the observation sequence — no
wall clock, no unseeded randomness — so chaos-campaign replays that
drive the operator stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AvailabilityEstimator", "DriftPolicy", "p_drift", "hot_objects"]


@dataclass(frozen=True)
class DriftPolicy:
    """Thresholds turning telemetry into reconfiguration decisions.

    Attributes
    ----------
    p_rel, p_abs:
        Re-solve when the mean estimated outage probability moved by
        more than ``max(p_abs, p_rel * baseline)`` since the last solve.
        The absolute floor keeps tiny baselines from hair-triggering.
    hot_factor, hot_min_accesses:
        An object is *hot* when its accesses since the last solve exceed
        ``hot_factor`` times the mean over the *other* objects (and at
        least ``hot_min_accesses``) — the flash-crowd detector.
    hot_omega_boost:
        Extra storage-overhead budget granted to hot objects, letting
        the re-solve buy them more parity (availability) than the fleet
        default.
    cooldown_epochs:
        Minimum epochs between reconfiguration passes, so one drifty
        measurement cannot thrash the archive with migrations.
    scrub_every:
        Run a full anti-entropy pass (scrub + repair) every this many
        epochs, in addition to the deficit-triggered heals.  ``0`` (the
        default) disables the periodic pass.
    budget_evals:
        Solve-time budget, in model evaluations, handed to
        :func:`~repro.core.ft_optimizer.warm_start` (``None`` = no cap).
    """

    p_rel: float = 0.5
    p_abs: float = 0.02
    hot_factor: float = 4.0
    hot_min_accesses: int = 8
    hot_omega_boost: float = 0.5
    cooldown_epochs: int = 5
    scrub_every: int = 0
    budget_evals: int | None = None

    def __post_init__(self) -> None:
        if self.p_rel < 0 or self.p_abs < 0:
            raise ValueError("drift thresholds must be non-negative")
        if self.hot_factor <= 0 or self.hot_omega_boost < 0:
            raise ValueError("hot-object parameters must be positive")
        if self.cooldown_epochs < 0 or self.scrub_every < 0:
            raise ValueError("cooldown_epochs/scrub_every must be >= 0")


class AvailabilityEstimator:
    """Per-system outage-probability estimate from epoch observations.

    Each epoch contributes a 0/1 outage indicator per system; the
    estimate is an EWMA (weight ``alpha`` on each epoch) seeded at
    ``prior`` (the design-time ``p``), so a system that never fails
    decays toward — but never *below* — a small floor, and a region in
    trouble climbs within a few epochs.  Estimates are clamped to
    ``[floor, ceil]`` to keep the Poisson-binomial re-solve
    well-conditioned.
    """

    alpha = 0.2
    floor = 1e-4
    ceil = 0.9

    def __init__(self, n: int, *, prior: float = 0.01) -> None:
        if n < 1:
            raise ValueError("need at least one system")
        self.n = n
        self._p = [min(max(float(prior), self.floor), self.ceil)] * n
        self.epochs_observed = 0

    def observe(self, failed_ids) -> None:
        """Fold one epoch's outage outcome into the estimates."""
        down = set(int(i) for i in failed_ids)
        for i in range(self.n):
            x = 1.0 if i in down else 0.0
            p = self._p[i] + self.alpha * (x - self._p[i])
            self._p[i] = min(max(p, self.floor), self.ceil)
        self.epochs_observed += 1

    def probabilities(self) -> tuple[float, ...]:
        """The per-system outage-probability vector (clamped)."""
        return tuple(self._p)

    def mean_p(self) -> float:
        return sum(self._p) / self.n


def p_drift(baseline: float, current: float, policy: DriftPolicy) -> bool:
    """Has the mean outage estimate moved enough to justify a re-solve?"""
    return abs(current - baseline) > max(policy.p_abs, policy.p_rel * baseline)


def hot_objects(
    deltas: dict[str, int], policy: DriftPolicy
) -> list[str]:
    """Objects whose access growth since the last solve marks them hot.

    ``deltas`` maps object name to accesses accumulated since the last
    reconfiguration baseline.  Hotness compares each object against the
    mean of the *others* (comparing against the global mean would make a
    flash crowd on one of two objects mathematically undetectable for
    any factor >= 2).  Sorted for deterministic downstream iteration.
    """
    if len(deltas) < 2:
        return []
    total = sum(deltas.values())
    rest = len(deltas) - 1
    out = []
    for name, d in deltas.items():
        if d < policy.hot_min_accesses:
            continue
        others = (total - d) / rest
        if d > policy.hot_factor * max(others, 1.0):
            out.append(name)
    return sorted(out)
