"""The failure-count pmf, and heterogeneous outage probabilities.

The paper's model assumes every system fails with the same p = 0.01,
but its own calibration data says otherwise: OLCF's Alpine was down
1.07% of 2020 while ALCF's Theta Lustre was down 5.2% (§5.1.4).  A real
geo-distributed deployment mixes facilities of very different
reliability.

Because the placement is symmetric (one fragment per system) and
Reed-Solomon tolerates *any* m losses, availability depends on the
failure-probability vector only through the distribution of the failure
*count* N — which for independent non-identical systems is
Poisson-binomial.  This module computes that pmf exactly (the standard
O(n^2) dynamic program) and is the only source of failure-count
probabilities: the paper's binomial model (``core.availability`` and a
scalar-p ``FTProblem``) feeds it a uniform vector.  Every entry is
within n * 2**-52 relative of the exact rational binomial (n <= 128,
p in [1e-4, 0.9]); ``tests/test_heterogeneous.py`` pins it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "poisson_binomial_pmf",
    "prob_more_than_k_failures_hetero",
    "expected_error_from_pmf",
    "expected_relative_error_hetero",
]


def poisson_binomial_pmf(ps) -> np.ndarray:
    """pmf of N = number of failures among independent Bernoulli(p_i).

    Returns an array of length n + 1; entry k is P(N = k).  Exact DP:
    fold each system into the distribution one at a time.  Every step
    only multiplies and adds non-negative numbers, so nothing cancels.
    """
    ps = np.asarray(ps, dtype=np.float64)
    if ps.ndim != 1 or ps.size < 1:
        raise ValueError("ps must be a non-empty 1-D probability vector")
    if np.any((ps < 0) | (ps > 1)):
        raise ValueError("probabilities must be in [0, 1]")
    pmf = np.zeros(ps.size + 1)
    pmf[0] = 1.0
    for i, p in enumerate(ps):
        # P_new(k) = P(k) * (1 - p) + P(k - 1) * p
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - p) + pmf[: i + 1] * p
        pmf[0] *= 1.0 - p
    return pmf


def prob_more_than_k_failures_hetero(ps, k: int) -> float:
    """P(N > k) under heterogeneous outage probabilities."""
    pmf = poisson_binomial_pmf(ps)
    if k >= len(pmf) - 1:
        return 0.0
    if k < 0:
        return 1.0
    # The pmf sums to 1 only within n ulps; a probability stays <= 1.
    return min(1.0, sum(pmf[k + 1 :].tolist()))


def expected_error_from_pmf(pmf: tuple[float, ...], ms, errors) -> float:
    """Eq. 5 over a failure-count pmf ``(P(N = 0), ..., P(N = n))``.

    Error e0 = 1 (nothing recoverable) applies when ``N > m_1``, e_j
    when ``m_{j+1} < N <= m_j`` and e_l when ``N <= m_l``; each band is a sum of pmf entries, never
    a difference of CDFs.  Pass ``pmf`` as a tuple of Python floats: the
    bands are Python ``sum``s over its slices, in this order, and the
    FT solvers' numbers depend on that order.
    """
    n = len(pmf) - 1
    if len(ms) != len(errors):
        raise ValueError("ms and errors must align")
    if not ms:
        raise ValueError("need at least one level")
    if any(a <= b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"ms must be strictly decreasing, got {ms}")
    if ms[0] >= n or ms[-1] < 1:
        raise ValueError(f"need n > m_1 and m_l >= 1, got {ms} with n={n}")
    total = sum(pmf[ms[0] + 1 :])  # times e0 = 1
    total += errors[-1] * sum(pmf[: ms[-1] + 1])
    for j in range(len(ms) - 1):
        total += errors[j] * sum(pmf[ms[j + 1] + 1 : ms[j] + 1])
    return float(total)


def expected_relative_error_hetero(
    ps, ms: list[int], errors: list[float]
) -> float:
    """Eq. 5 generalised to a per-system probability vector."""
    pmf = tuple(poisson_binomial_pmf(ps).tolist())
    return expected_error_from_pmf(pmf, ms, errors)
