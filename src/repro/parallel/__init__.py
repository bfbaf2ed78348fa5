"""Parallel execution: the thread fan-out (``threads``) and the one tile
engine the pipeline runs (``procpipe``: axis-0 tile cutter, shared-memory
transport, the refactor/reconstruct tile-map executors), plus the two
paper models — the calibrated cluster-scaling model (``scaling``) and
the GPU batched backend (``gpu``)."""

from .gpu import K80_MODEL, GPUDeviceModel, batched_decompose, batched_recompose
from .procpipe import (
    AUTO_PROCESS_THRESHOLD,
    SharedArena,
    TileSource,
    resolve_mode,
)
from .threads import default_workers, thread_map
from .scaling import (
    ALPINE_FS,
    ClusterScalingModel,
    OperationRates,
    andes_calibrated_rates,
)

__all__ = [
    "thread_map",
    "default_workers",
    "ClusterScalingModel",
    "OperationRates",
    "andes_calibrated_rates",
    "ALPINE_FS",
    "batched_decompose",
    "batched_recompose",
    "GPUDeviceModel",
    "K80_MODEL",
    "AUTO_PROCESS_THRESHOLD",
    "SharedArena",
    "TileSource",
    "resolve_mode",
]
