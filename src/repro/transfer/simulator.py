"""WAN transfer-time models.

Two models of the same physical situation — a user site gathering from /
distributing to remote storage endpoints whose WAN bandwidth is shared
equally among that endpoint's concurrent requests (§3.3's assumption):

:func:`static_transfer_times`
    The paper's closed-form model: every request to endpoint ``i`` gets
    ``B_i / c_i`` for its whole lifetime, where ``c_i`` is the number of
    requests assigned to endpoint ``i``.  This is what the gathering
    optimisation objective (Eq. 10) and the Fig. 3/4 latency numbers use.

:class:`FairShareSimulator`
    An exact event-driven simulation where an endpoint's bandwidth is
    re-divided among its *remaining* requests each time one finishes, so
    later requests speed up.  Strictly more realistic; the static model
    is an upper bound per request.  Used for the model-fidelity ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TransferRequest", "TransferResult", "static_transfer_times", "FairShareSimulator"]


@dataclass(frozen=True)
class TransferRequest:
    """One fragment transfer: ``nbytes`` from endpoint ``system_id``."""

    system_id: int
    nbytes: float
    tag: object = None


@dataclass
class TransferResult:
    """Completion summary of a batch of transfers."""

    finish_times: list[float]
    makespan: float
    total_bytes: float


def static_transfer_times(
    requests: list[TransferRequest], bandwidths: np.ndarray
) -> TransferResult:
    """The paper's equal-share model (no re-division on completion).

    Request r to system i takes ``r.nbytes / (B_i / c_i)`` where ``c_i``
    counts the requests assigned to system i.
    """
    counts = np.zeros(len(bandwidths))
    for r in requests:
        counts[r.system_id] += 1
    times = []
    total = 0.0
    for r in requests:
        share = bandwidths[r.system_id] / counts[r.system_id]
        times.append(float(r.nbytes / share))
        total += r.nbytes
    makespan = max(times) if times else 0.0
    return TransferResult(times, makespan, total)


class FairShareSimulator:
    """Exact event-driven fair-share bandwidth simulation.

    Each endpoint's bandwidth is split equally among its currently active
    requests; when any request completes, shares are recomputed.  Between
    events every rate is constant, so the next completion time is exact
    (no time-stepping error).  Complexity O(R^2) in the number of
    requests per endpoint — trivially fast for the n<=32, l<=8 scales the
    paper evaluates.  Like the paper, it puts no cap on the user site's
    ingress.
    """

    def __init__(self, bandwidths: np.ndarray) -> None:
        bandwidths = np.asarray(bandwidths, dtype=np.float64)
        if np.any(bandwidths <= 0):
            raise ValueError("bandwidths must be positive")
        self.bandwidths = bandwidths

    def run(self, requests: list[TransferRequest]) -> TransferResult:
        """Simulate all requests starting at t=0; returns completion times
        in the order of ``requests``."""
        for r in requests:
            if r.system_id < 0 or r.system_id >= len(self.bandwidths):
                raise ValueError(f"unknown system id {r.system_id}")
            if r.nbytes < 0:
                raise ValueError("negative transfer size")
        remaining = np.array([float(r.nbytes) for r in requests])
        finish = np.zeros(len(requests))
        active = remaining > 0
        finish[~active] = 0.0
        t = 0.0
        while np.any(active):
            rates = self._rates(requests, active)
            # Time until the first active request drains at current rates.
            dt = np.full(len(requests), np.inf)
            np.divide(remaining, rates, out=dt, where=active)
            step = float(np.min(dt))
            t += step
            remaining = np.where(active, remaining - rates * step, remaining)
            done = active & (remaining <= 1e-9 * np.maximum(rates, 1.0))
            finish[done] = t
            active &= ~done
        return TransferResult(
            finish.tolist(), float(np.max(finish)) if len(requests) else 0.0,
            float(sum(r.nbytes for r in requests)),
        )

    def _rates(self, requests: list[TransferRequest], active: np.ndarray) -> np.ndarray:
        counts = np.zeros(len(self.bandwidths))
        for r, a in zip(requests, active):
            if a:
                counts[r.system_id] += 1
        rates = np.zeros(len(requests))
        for i, (r, a) in enumerate(zip(requests, active)):
            if a:
                rates[i] = self.bandwidths[r.system_id] / counts[r.system_id]
        return rates
