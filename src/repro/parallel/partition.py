"""Domain decomposition into per-core blocks.

The paper's weak-scaling setup fixes the data object produced per CPU
core (e.g. 512 MB/core for NYX) and refactors each core's block
independently — data refactoring is "embarrassingly parallel" (§5.5.1).
This module splits an nD array into equal blocks along the leading axis
and reassembles them, preserving byte-for-byte layout.
"""

from __future__ import annotations

import numpy as np

from .tiles import axis0_bounds

__all__ = ["split_blocks", "join_blocks", "block_shape_for"]


def split_blocks(data: np.ndarray, num_blocks: int) -> list[np.ndarray]:
    """Split along axis 0 into ``num_blocks`` near-equal contiguous blocks.

    Every block gets at least 2 planes so it remains refactorable;
    ``num_blocks`` is clamped accordingly.  The cut points are
    :func:`repro.parallel.tiles.axis0_bounds`, the one decomposition
    blocks, tiles and the pipeline share.
    """
    if data.ndim < 1:
        raise ValueError("cannot split a scalar")
    return [
        np.ascontiguousarray(data[lo:hi])
        for lo, hi in axis0_bounds(data.shape[0], num_blocks)
    ]


def join_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`split_blocks`."""
    if not blocks:
        raise ValueError("no blocks to join")
    return np.concatenate(blocks, axis=0)


def block_shape_for(shape: tuple[int, ...], num_blocks: int) -> tuple[int, ...]:
    """Shape of the largest block produced by :func:`split_blocks`."""
    largest = max(hi - lo for lo, hi in axis0_bounds(shape[0], num_blocks))
    return (largest,) + tuple(shape[1:])
