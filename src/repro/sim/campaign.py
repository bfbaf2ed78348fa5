"""Time-stepped campaign simulation.

Plays out a scientific campaign the way the paper's introduction frames
it (ITER-style: experiments steered by access to historical data): at
every epoch, storage systems independently fail and recover, analyses
request stored objects, and the simulator records what quality each
request actually received.  Aggregated over a long campaign, this yields
the empirical availability/accuracy statistics that the Eq. 5 design
target should predict — including regimes the analytic model does not
cover (repair backlogs, correlated outages).

Beyond the default independent per-epoch Markov chains, a campaign can
draw its outages from a *failure model* — a function ``(epoch, n)`` that
returns the ids of the systems down in that epoch (e.g. a
:class:`~repro.storage.failures.MaintenanceSchedule`'s ``down_at`` or a
:class:`~repro.storage.failures.CorrelatedFailureModel`'s
``sample_failed_ids``) — and a *step hook* can reconfigure the object's
fault tolerance mid-campaign (the control plane's reconfiguration loop
plugs in here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.gathering import recoverable_levels

__all__ = [
    "CampaignConfig",
    "CampaignStats",
    "run_campaign",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a campaign simulation.

    Attributes
    ----------
    n:
        Number of storage systems.
    p_fail:
        Per-epoch probability an up system goes down.
    p_repair:
        Per-epoch probability a down system comes back.  Steady-state
        unavailability is ``p_fail / (p_fail + p_repair)``; pick the two
        so it matches the availability model's ``p`` when comparing.
    ms:
        Fault-tolerance configuration of the stored object.
    errors:
        Per-level reconstruction errors e_j.
    epochs:
        Campaign length.
    requests_per_epoch:
        Analysis requests issued per epoch.
    """

    n: int
    p_fail: float
    p_repair: float
    ms: tuple[int, ...]
    errors: tuple[float, ...]
    epochs: int = 10_000
    requests_per_epoch: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.p_fail < 1 or not 0 < self.p_repair <= 1:
            raise ValueError("p_fail and p_repair must be in (0, 1]")
        if len(self.ms) != len(self.errors):
            raise ValueError("ms and errors must align")
        _check_ms(self.ms, self.n)
        if self.epochs < 1 or self.requests_per_epoch < 1:
            raise ValueError("epochs and requests_per_epoch must be >= 1")

    @property
    def steady_state_p(self) -> float:
        """Long-run per-system unavailability of the up/down Markov chain."""
        return self.p_fail / (self.p_fail + self.p_repair)


def _check_ms(ms, n: int) -> None:
    if any(a <= b for a, b in zip(ms, ms[1:])):
        raise ValueError("ms must be strictly decreasing")
    if ms[0] >= n or ms[-1] < 1:
        raise ValueError("need n > m_1 and m_l >= 1")


@dataclass
class CampaignStats:
    """What the campaign's analyses actually experienced."""

    requests: int = 0
    full_accuracy: int = 0
    degraded: int = 0
    blackout: int = 0
    error_sum: float = 0.0
    levels_histogram: dict[int, int] = field(default_factory=dict)
    max_concurrent_failures: int = 0
    #: Per-epoch rows (only when ``record_trajectory=True``): epoch,
    #: failure count, recoverable level count, active ms, request error.
    trajectory: list[dict] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        return self.error_sum / self.requests if self.requests else 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests that got *some* data."""
        if not self.requests:
            return 1.0
        return 1.0 - self.blackout / self.requests

    @property
    def full_accuracy_fraction(self) -> float:
        return self.full_accuracy / self.requests if self.requests else 0.0


def run_campaign(
    config: CampaignConfig,
    *,
    seed: int = 0,
    failure_model=None,
    step_hook=None,
    record_trajectory: bool = False,
) -> CampaignStats:
    """Run the campaign and return aggregate request statistics.

    By default system state evolves as independent two-state Markov
    chains (up/down with the configured transition probabilities), which
    converges to i.i.d. Bernoulli(p_steady) marginals — but consecutive
    epochs are *correlated* (outages persist), exactly like real
    maintenance, so request outcomes cluster in time even though
    long-run rates match the analytic model.

    ``failure_model(epoch, n)`` replaces the Markov chain: it returns the
    ids of the systems down in ``epoch`` (duplicates are dropped and the
    ids sorted).

    ``step_hook(epoch, failed, ms)`` is called once per epoch after the
    outage draw and before requests are served; returning a new
    strictly decreasing ``ms`` tuple (same length) reconfigures the
    object from this epoch on — the control-plane operator's seam.

    ``record_trajectory`` appends one row per epoch to
    ``stats.trajectory``.  The default call (no new arguments) is
    byte-for-byte identical to the pre-hook behaviour: the RNG stream
    and every statistic are untouched.
    """
    rng = np.random.default_rng(seed)
    up = np.ones(config.n, dtype=bool)
    stats = CampaignStats()
    ms = tuple(config.ms)
    errors = tuple(config.errors)
    for epoch in range(config.epochs):
        if failure_model is None:
            go_down = up & (rng.random(config.n) < config.p_fail)
            come_up = ~up & (rng.random(config.n) < config.p_repair)
            up = (up & ~go_down) | come_up
            failed = np.nonzero(~up)[0].tolist()
        else:
            failed = sorted(set(int(i) for i in failure_model(epoch, config.n)))
        stats.max_concurrent_failures = max(
            stats.max_concurrent_failures, len(failed)
        )
        if step_hook is not None:
            new_ms = step_hook(epoch, list(failed), ms)
            if new_ms is not None:
                new_ms = tuple(int(m) for m in new_ms)
                if len(new_ms) != len(errors):
                    raise ValueError(
                        "step_hook must keep the level count unchanged"
                    )
                _check_ms(new_ms, config.n)
                ms = new_ms
        levels = recoverable_levels(list(ms), failed, config.n)
        got = len(levels)
        err = 1.0 if got == 0 else errors[got - 1]
        for _ in range(config.requests_per_epoch):
            stats.requests += 1
            stats.levels_histogram[got] = stats.levels_histogram.get(got, 0) + 1
            if got == 0:
                stats.blackout += 1
                stats.error_sum += 1.0
            else:
                stats.error_sum += errors[got - 1]
                if got == len(ms):
                    stats.full_accuracy += 1
                else:
                    stats.degraded += 1
        if record_trajectory:
            stats.trajectory.append(
                {
                    "epoch": epoch,
                    "failed": len(failed),
                    "levels": got,
                    "ms": list(ms),
                    "error": err,
                }
            )
    return stats
