"""Parallel execution: block-parallel refactoring on local cores, the
calibrated cluster-scaling model, and the GPU batched backend."""

from .executor import ParallelRefactorer, ParallelResult
from .gpu import K80_MODEL, GPUDeviceModel, batched_decompose, batched_recompose
from .partition import block_shape_for, join_blocks, split_blocks
from .procpipe import (
    AUTO_PROCESS_THRESHOLD,
    SharedArena,
    TileSource,
    resolve_mode,
)
from .streaming import (
    stream_reconstruct,
    stream_reconstruct_region,
    stream_refactor,
)
from .threads import default_workers, thread_map
from .tiles import (
    TileGrid,
    axis0_bounds,
    tile_reconstruct,
    tile_reconstruct_roi,
    tile_refactor,
)
from .scaling import (
    ALPINE_FS,
    ClusterScalingModel,
    OperationRates,
    andes_calibrated_rates,
    measure_rate,
)

__all__ = [
    "ParallelRefactorer",
    "ParallelResult",
    "thread_map",
    "default_workers",
    "split_blocks",
    "join_blocks",
    "block_shape_for",
    "ClusterScalingModel",
    "OperationRates",
    "measure_rate",
    "andes_calibrated_rates",
    "ALPINE_FS",
    "batched_decompose",
    "batched_recompose",
    "stream_refactor",
    "stream_reconstruct",
    "stream_reconstruct_region",
    "TileGrid",
    "tile_refactor",
    "tile_reconstruct",
    "tile_reconstruct_roi",
    "GPUDeviceModel",
    "K80_MODEL",
    "AUTO_PROCESS_THRESHOLD",
    "SharedArena",
    "TileSource",
    "axis0_bounds",
    "resolve_mode",
]
