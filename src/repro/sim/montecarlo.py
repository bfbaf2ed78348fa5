"""Monte Carlo validation of the availability / expected-error models.

The analytic formulas of §2.1 and §3.2 (Eqs. 1, 2, 4, 5) assume i.i.d.
Bernoulli outages.  This module samples outage vectors directly and
measures the empirical quantities, giving an independent check of every
closed form — and a way to quantify how far reality drifts when the
independence assumption is broken (correlated failures), which the
analytic model cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.availability import expected_relative_error
from ..storage.failures import CorrelatedFailureModel

__all__ = ["MonteCarloResult", "simulate_expected_error", "simulate_unavailability"]


@dataclass
class MonteCarloResult:
    """Empirical estimate with its standard error and the analytic value."""

    empirical: float
    std_error: float
    analytic: float
    trials: int

    @property
    def z_score(self) -> float:
        """Standardised deviation of the empirical estimate from the
        analytic prediction (|z| < ~4 passes at any reasonable trials)."""
        if self.std_error == 0:
            return 0.0 if self.empirical == self.analytic else float("inf")
        return (self.empirical - self.analytic) / self.std_error


def _bernoulli_outages(
    n: int, p: float, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """(trials,) failure counts under i.i.d. outages."""
    return rng.binomial(n, p, size=trials)


def simulate_unavailability(
    n: int,
    p: float,
    tolerance: int,
    *,
    trials: int = 200_000,
    seed: int = 0,
) -> MonteCarloResult:
    """Empirical P(N > tolerance) vs the Eq. 2 binomial tail."""
    from ..core.availability import prob_more_than_k_failures

    rng = np.random.default_rng(seed)
    counts = _bernoulli_outages(n, p, trials, rng)
    hits = counts > tolerance
    emp = float(hits.mean())
    se = float(hits.std(ddof=1) / np.sqrt(trials))
    return MonteCarloResult(
        emp, se, prob_more_than_k_failures(n, tolerance, p), trials
    )


def simulate_expected_error(
    n: int,
    p: float,
    ms: list[int],
    errors: list[float],
    *,
    trials: int = 200_000,
    seed: int = 0,
    correlated: CorrelatedFailureModel | None = None,
) -> MonteCarloResult:
    """Empirical E[relative error] vs the Eq. 5 closed form.

    Each trial samples an outage vector, determines the deepest
    recoverable level (N <= m_j for a prefix because m is strictly
    decreasing), and scores that level's error (or 1.0 if even level 1
    is lost).  Passing ``correlated`` replaces the i.i.d. sampler with
    region-shared-fate failures; the analytic value is still the Eq. 5
    i.i.d. prediction, so the result quantifies the model violation.
    """
    if any(a <= b for a, b in zip(ms, ms[1:])) or not ms:
        raise ValueError("ms must be non-empty and strictly decreasing")
    if len(ms) != len(errors):
        raise ValueError("ms and errors must align")
    rng = np.random.default_rng(seed)
    if correlated is None:
        counts = _bernoulli_outages(n, p, trials, rng)
    else:
        counts = np.array(
            [len(correlated.sample_failed_ids(n)) for _ in range(trials)]
        )
    # Vectorised scoring: thresholds m_l < m_{l-1} < ... < m_1.
    ms_arr = np.asarray(ms)
    err_arr = np.asarray(errors, dtype=np.float64)
    # deepest recoverable level index for each trial: the largest j with
    # counts <= m_j; since ms is decreasing, that is the count of levels
    # whose m_j >= N.
    recoverable = (counts[:, None] <= ms_arr[None, :]).sum(axis=1)
    scores = np.where(
        recoverable == 0, 1.0, err_arr[np.maximum(recoverable - 1, 0)]
    )
    emp = float(scores.mean())
    se = float(scores.std(ddof=1) / np.sqrt(trials))
    analytic = expected_relative_error(n, p, list(ms), list(errors))
    return MonteCarloResult(emp, se, analytic, trials)
