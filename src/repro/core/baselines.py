"""Baseline methods: data duplication (DP) and plain erasure coding (EC).

These are the two existing approaches RAPIDS is evaluated against
(§2.1, §5.2).  Both implement the same prepare/restore interface as the
RAPIDS pipeline so every bench can sweep the three methods uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..transfer import (
    TransferRequest,
    duplication_distribution,
    ec_distribution,
    phase_latency,
)
from .availability import (
    duplication_storage_overhead,
    duplication_unavailability,
    ec_storage_overhead,
    ec_unavailability,
)

__all__ = ["MethodReport", "DuplicationMethod", "PlainECMethod"]


@dataclass
class MethodReport:
    """Common accounting emitted by every method's prepare/restore."""

    method: str
    storage_overhead: float
    network_bytes: float
    distribution_latency: float = 0.0
    gathering_latency: float = 0.0
    expected_error: float = float("nan")


class DuplicationMethod:
    """Keep ``replicas`` full copies (original + extras) on m of n systems."""

    name = "DP"

    def __init__(self, replicas: int = 3) -> None:
        if replicas < 2:
            raise ValueError("duplication needs at least 2 replicas")
        self.replicas = replicas

    def expected_error(self, n: int, p: float) -> float:
        """E[e] = 1.0 * P(unavailable): the data is all-or-nothing."""
        return duplication_unavailability(n, self.replicas, p)

    def prepare(
        self,
        data_bytes: float,
        bandwidths: np.ndarray,
        *,
        p: float = 0.01,
    ) -> MethodReport:
        """Distribute the extra copies; returns overhead/latency accounting."""
        reqs = duplication_distribution(data_bytes, self.replicas - 1, bandwidths)
        res = phase_latency(reqs, bandwidths)
        return MethodReport(
            method=self.name,
            storage_overhead=duplication_storage_overhead(self.replicas),
            network_bytes=res.total_bytes,
            distribution_latency=res.makespan,
            expected_error=self.expected_error(len(bandwidths), p),
        )

    def restore(self, data_bytes: float, bandwidths: np.ndarray) -> MethodReport:
        """Pull one replica from the fastest replica holder."""
        src = int(np.argsort(bandwidths)[::-1][0])
        res = phase_latency([TransferRequest(src, data_bytes)], bandwidths)
        return MethodReport(
            method=self.name,
            storage_overhead=duplication_storage_overhead(self.replicas),
            network_bytes=data_bytes,
            gathering_latency=res.makespan,
        )


class PlainECMethod:
    """A single (k, m) Reed-Solomon code over the whole object."""

    name = "EC"

    def __init__(self, k: int = 12, m: int = 4) -> None:
        if k < 1 or m < 0:
            raise ValueError(f"invalid EC parameters k={k}, m={m}")
        self.k = k
        self.m = m

    @property
    def n_fragments(self) -> int:
        return self.k + self.m

    def expected_error(self, n: int, p: float) -> float:
        """E[e] = 1.0 * P(more than m concurrent failures)."""
        return ec_unavailability(n, self.m, p)

    def prepare(
        self,
        data_bytes: float,
        bandwidths: np.ndarray,
        *,
        p: float = 0.01,
    ) -> MethodReport:
        reqs = ec_distribution(data_bytes, self.k, self.m, bandwidths)
        res = phase_latency(reqs, bandwidths)
        return MethodReport(
            method=self.name,
            storage_overhead=ec_storage_overhead(self.k, self.m),
            network_bytes=res.total_bytes,
            distribution_latency=res.makespan,
            expected_error=self.expected_error(len(bandwidths), p),
        )

    def restore(self, data_bytes: float, bandwidths: np.ndarray) -> MethodReport:
        """Gather k fragments from the fastest systems."""
        order = sorted(
            range(self.n_fragments), key=lambda i: -bandwidths[i]
        )[: self.k]
        frag = data_bytes / self.k
        res = phase_latency(
            [TransferRequest(i, frag) for i in order], bandwidths
        )
        return MethodReport(
            method=self.name,
            storage_overhead=ec_storage_overhead(self.k, self.m),
            network_bytes=frag * self.k,
            gathering_latency=res.makespan,
        )
