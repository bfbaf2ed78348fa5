"""Building transfer request batches for the distribution phase.

The distribution phase pushes fragments out to the remote systems and
launches all transfers in parallel, so the phase latency is the slowest
transfer (paper §5.2.2), computed under the equal-share model of
:mod:`repro.transfer.simulator`.  The gathering phase's latency is
:func:`repro.core.gathering.gathering_latency` of the selection.
"""

from __future__ import annotations

import numpy as np

from .simulator import (
    FairShareSimulator,
    TransferRequest,
    TransferResult,
    static_transfer_times,
)

__all__ = [
    "duplication_distribution",
    "ec_distribution",
    "refactored_distribution",
    "phase_latency",
]


def duplication_distribution(
    data_bytes: float, extra_copies: int, bandwidths: np.ndarray
) -> list[TransferRequest]:
    """DP baseline: full copies to the highest-bandwidth remote systems."""
    if extra_copies < 1:
        raise ValueError("need at least one extra copy to distribute")
    if extra_copies > len(bandwidths):
        raise ValueError("more copies than remote systems")
    order = np.argsort(bandwidths)[::-1][:extra_copies]
    return [TransferRequest(int(i), data_bytes, tag="replica") for i in order]


def ec_distribution(
    data_bytes: float, k: int, m: int, bandwidths: np.ndarray
) -> list[TransferRequest]:
    """Plain-EC baseline: n = k + m fragments of size S/k, one per system."""
    n = k + m
    if n > len(bandwidths):
        raise ValueError(f"{n} fragments exceed {len(bandwidths)} systems")
    frag = data_bytes / k
    return [TransferRequest(i, frag, tag=("ec", i)) for i in range(n)]


def refactored_distribution(
    level_sizes: list[float],
    ms: list[int],
    n: int,
    bandwidths: np.ndarray,
    *,
    aggregate: bool = True,
) -> list[TransferRequest]:
    """RF+EC: level j becomes n fragments of size s_j/(n - m_j) each.

    With ``aggregate`` (the default), each destination's fragments of
    all levels ship as one transfer task — that is how the Globus-driven
    distribution component batches files per endpoint (§4.2), and it
    avoids self-inflicted bandwidth contention between a destination's
    own level fragments.  ``aggregate=False`` issues one request per
    fragment (used by the contention-model ablation).
    """
    if len(level_sizes) != len(ms):
        raise ValueError("level_sizes and ms must align")
    if n > len(bandwidths):
        raise ValueError(f"n={n} exceeds {len(bandwidths)} systems")
    for m in ms:
        if not 0 <= m < n:
            raise ValueError(f"invalid m={m} for n={n}")
    if aggregate:
        per_system = sum(s / (n - m) for s, m in zip(level_sizes, ms))
        return [
            TransferRequest(i, per_system, tag=("bundle", i)) for i in range(n)
        ]
    reqs: list[TransferRequest] = []
    for j, (s, m) in enumerate(zip(level_sizes, ms)):
        frag = s / (n - m)
        reqs.extend(
            TransferRequest(i, frag, tag=("level", j, i)) for i in range(n)
        )
    return reqs


def phase_latency(
    requests: list[TransferRequest],
    bandwidths: np.ndarray,
    *,
    model: str = "static",
) -> TransferResult:
    """Latency of a transfer phase (all requests launched in parallel).

    ``model`` selects the paper's static equal-share formula or the exact
    event-driven fair-share simulation.
    """
    if model == "static":
        return static_transfer_times(requests, np.asarray(bandwidths, float))
    if model == "fair-share":
        return FairShareSimulator(np.asarray(bandwidths, float)).run(requests)
    raise ValueError(f"unknown transfer model: {model!r}")
