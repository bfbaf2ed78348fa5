"""Synthetic Globus transfer logs and per-endpoint bandwidth estimation.

The paper could not reach many real geo-distributed systems, so it
estimated a static bandwidth per remote endpoint from four years of
anonymized Globus Connect Server transfer logs: group the log records by
remote endpoint, compute each transfer's user-perceived throughput
(bytes / elapsed), and average (§5.1.2).  The resulting estimates ranged
from ~400 MB/s to more than 3 GB/s across 16 remote GCSs.

We reproduce that post-processing pipeline exactly, over synthetic logs:
each endpoint gets a latent mean throughput drawn log-uniformly from the
paper's observed range, and individual transfers scatter lognormally
around it (heavy-tailed per-transfer variation is the signature of
shared WAN links).  Estimating from the synthetic logs then recovers
endpoint bandwidths with realistic estimation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransferRecord",
    "generate_transfer_logs",
    "estimate_bandwidths",
    "paper_bandwidth_profile",
    "MB",
    "GB",
]

MB = 1024**2
GB = 1024**3

#: Bandwidth range reported in §5.1.2 (bytes/s).
_BW_LOW = 400 * MB
_BW_HIGH = 3.2 * GB


@dataclass(frozen=True)
class TransferRecord:
    """One Globus-style transfer log entry."""

    endpoint: str
    nbytes: int
    start_time: float
    elapsed_seconds: float

    @property
    def throughput(self) -> float:
        """User-perceived throughput in bytes/s."""
        return self.nbytes / self.elapsed_seconds


def generate_transfer_logs(
    num_endpoints: int = 16,
    transfers_per_endpoint: int = 200,
    *,
    seed: int = 2014,
) -> tuple[list[TransferRecord], dict[str, float]]:
    """Generate synthetic GCS-to-GCS transfer logs.

    Returns ``(records, true_means)`` where ``true_means`` holds each
    endpoint's latent mean throughput so tests can check the estimator.
    Individual transfers scatter lognormally (sigma 0.35).
    """
    if num_endpoints < 1 or transfers_per_endpoint < 1:
        raise ValueError("need at least one endpoint and one transfer")
    sigma = 0.35
    rng = np.random.default_rng(seed)
    # Log-uniform latent means over the observed range, sorted descending
    # so endpoint ids are stable across runs.
    means = np.exp(
        rng.uniform(np.log(_BW_LOW), np.log(_BW_HIGH), size=num_endpoints)
    )
    means = np.sort(means)[::-1]
    records: list[TransferRecord] = []
    true_means: dict[str, float] = {}
    t = 0.0
    for i, mean in enumerate(means):
        ep = f"gcs-{i:02d}"
        true_means[ep] = float(mean)
        # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
        mu = np.log(mean) - sigma**2 / 2
        thr = rng.lognormal(mu, sigma, size=transfers_per_endpoint)
        sizes = rng.lognormal(np.log(50 * GB), 1.0, size=transfers_per_endpoint)
        for s, th in zip(sizes, thr):
            records.append(
                TransferRecord(ep, int(s), t, float(s / th))
            )
            t += float(rng.exponential(3600.0))
    return records, true_means


def estimate_bandwidths(records: list[TransferRecord]) -> dict[str, float]:
    """The paper's estimator: mean user-perceived throughput per endpoint."""
    if not records:
        raise ValueError("no transfer records")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for r in records:
        sums[r.endpoint] = sums.get(r.endpoint, 0.0) + r.throughput
        counts[r.endpoint] = counts.get(r.endpoint, 0) + 1
    return {ep: sums[ep] / counts[ep] for ep in sums}


def paper_bandwidth_profile(n: int = 16) -> np.ndarray:
    """Estimated bandwidths for ``n`` remote systems, bytes/s, id order.

    This is the full §5.1.2 pipeline: synthesize logs, run the estimator,
    return the estimates as an array indexed by system id.  Deterministic;
    used by every transfer-latency bench.
    """
    records, _ = generate_transfer_logs(num_endpoints=n)
    est = estimate_bandwidths(records)
    return np.array([est[f"gcs-{i:02d}"] for i in range(n)])
