"""Availability and expected-error models (Eqs. 1, 2, 4 and 5).

All formulas assume ``n`` independently operated storage systems, each
unavailable with probability ``p`` (i.i.d. Bernoulli outages, §2.1), so
the failure count N is Binomial(n, p).  Every probability here is a sum
of entries of N's pmf, which :func:`~.heterogeneous.poisson_binomial_pmf`
computes exactly from the uniform vector ``(p, ..., p)``: O(n^2) work,
all terms non-negative, and Eq. 5's Eq. 4 bands P(m_{j+1} < N <= m_j)
are summed directly instead of as the difference of two CDFs near 1.
"""

from __future__ import annotations

import numpy as np

from .heterogeneous import (
    expected_relative_error_hetero,
    prob_more_than_k_failures_hetero,
)

__all__ = [
    "prob_more_than_k_failures",
    "duplication_unavailability",
    "ec_unavailability",
    "expected_relative_error",
    "duplication_storage_overhead",
    "ec_storage_overhead",
    "refactored_storage_overhead",
]


def _check_np(n: int, p: float) -> None:
    if n < 1:
        raise ValueError(f"need at least one system, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")


def prob_more_than_k_failures(n: int, k: int, p: float) -> float:
    """P(N > k) for N ~ Binomial(n, p)."""
    _check_np(n, p)
    return prob_more_than_k_failures_hetero(np.full(n, p), k)


def duplication_unavailability(n: int, m: int, p: float) -> float:
    """Eq. 1: P(unavailable) with ``m`` replicas on ``m`` of ``n`` systems.

    The data is lost exactly when all m replica hosts are down, and the
    binomial sum in Eq. 1 marginalises over how many of the other n - m
    systems also failed — so it collapses to p**m.
    """
    _check_np(n, p)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    return float(p**m)


def ec_unavailability(n: int, m: int, p: float) -> float:
    """Eq. 2: P(unavailable) for an EC code with m parity on n systems."""
    _check_np(n, p)
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}")
    return prob_more_than_k_failures(n, m, p)


def expected_relative_error(
    n: int, p: float, ms: list[int], errors: list[float]
) -> float:
    """Eq. 5: expectation of the relative L-infinity error.

    Parameters
    ----------
    ms:
        Fault-tolerance configuration [m_1, ..., m_l], strictly
        decreasing, with n > m_1 and m_l >= 1.
    errors:
        [e_1, ..., e_l]: error when reconstructing with levels 1..j.

    The error is 1 (the paper's e0) when no level is recoverable.
    """
    _check_np(n, p)
    return expected_relative_error_hetero(np.full(n, p), ms, errors)


# -- storage overheads (ratio of redundant bytes to original bytes) --------


def duplication_storage_overhead(m: int) -> float:
    """DP with m replicas total stores m - 1 redundant copies."""
    if m < 1:
        raise ValueError("need at least the original copy")
    return float(m - 1)


def ec_storage_overhead(k: int, m: int) -> float:
    """Plain EC with k data + m parity fragments wastes m/k."""
    if k < 1 or m < 0:
        raise ValueError(f"invalid EC config k={k}, m={m}")
    return m / k


def refactored_storage_overhead(
    sizes: list[float], ms: list[int], n: int, original_size: float
) -> float:
    """Eq. 6 numerator over S: sum_j (m_j / (n - m_j)) s_j / S.

    Note the paper counts only *parity* bytes as overhead, consistent
    with its definition for plain EC; the refactored data fragments
    themselves are smaller than the original data, which is where the
    additional savings beyond Eq. 6 come from.
    """
    if len(sizes) != len(ms):
        raise ValueError("sizes and ms must align")
    if original_size <= 0:
        raise ValueError("original_size must be positive")
    total = 0.0
    for s, m in zip(sizes, ms):
        if not 0 <= m < n:
            raise ValueError(f"invalid m={m} for n={n}")
        total += m / (n - m) * s
    return total / original_size
