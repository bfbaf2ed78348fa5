"""WAN transfer substrate (Globus substitute): logs, bandwidth estimation,
and equal-share transfer-time models."""

from .network import DiurnalBandwidthModel, DriftingBandwidthModel
from .logs import (
    GB,
    MB,
    TransferRecord,
    estimate_bandwidths,
    generate_transfer_logs,
    paper_bandwidth_profile,
)
from .pipelined import ArchivalSchedule, pipelined_archival
from .scheduler import (
    duplication_distribution,
    ec_distribution,
    phase_latency,
    refactored_distribution,
)
from .simulator import (
    FairShareSimulator,
    TransferRequest,
    TransferResult,
    static_transfer_times,
)

__all__ = [
    "MB",
    "GB",
    "DriftingBandwidthModel",
    "DiurnalBandwidthModel",
    "TransferRecord",
    "generate_transfer_logs",
    "estimate_bandwidths",
    "paper_bandwidth_profile",
    "TransferRequest",
    "TransferResult",
    "static_transfer_times",
    "FairShareSimulator",
    "duplication_distribution",
    "ec_distribution",
    "refactored_distribution",
    "phase_latency",
    "ArchivalSchedule",
    "pipelined_archival",
]
