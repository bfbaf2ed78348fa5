"""Multi-axis tiled domain decomposition.

Axis-0 blocks (``partition.py``) match the paper's per-core weak-scaling
layout, but visualization and analysis regions of interest are boxes in
*all* dimensions.  Tiling splits an nD array into a grid of nD tiles so
an ROI touches only the tiles its bounding box intersects — in 3-D, a
small box reads O(box volume) instead of O(slab volume).

:class:`TileGrid` owns the geometry (tile bounds per axis); the
refactor/reconstruct helpers wrap a :class:`~repro.refactor.Refactorer`
over the tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..refactor import RefactoredObject, Refactorer
from .threads import thread_map

__all__ = [
    "TileGrid",
    "axis0_bounds",
    "tile_refactor",
    "tile_reconstruct",
    "tile_reconstruct_roi",
]


def axis0_bounds(extent: int, num_tiles: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ``(lo, hi)`` spans covering ``range(extent)``.

    The one cut-point function: every tile keeps >= 2 planes (the
    refactorer's minimum) and the cuts are ``linspace`` floors.
    :meth:`TileGrid.regular` applies it per axis and
    :func:`repro.parallel.partition.split_blocks` along axis 0, so the
    pipeline's tiles line up byte-for-byte with the block and grid
    decompositions used elsewhere.
    """
    if extent < 1:
        raise ValueError("extent must be >= 1")
    if num_tiles < 1:
        raise ValueError("num_tiles must be >= 1")
    num_tiles = min(num_tiles, max(1, extent // 2))
    cuts = np.linspace(0, extent, num_tiles + 1).astype(int)
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(num_tiles)]


@dataclass(frozen=True)
class TileGrid:
    """The geometry of an nD tile decomposition.

    ``bounds[d]`` is the monotone list of cut points along axis d
    (including 0 and the axis length), so axis d has
    ``len(bounds[d]) - 1`` tiles.
    """

    shape: tuple[int, ...]
    bounds: tuple[tuple[int, ...], ...]

    @classmethod
    def regular(cls, shape: tuple[int, ...], tiles_per_axis) -> "TileGrid":
        """A near-uniform grid with ``tiles_per_axis[d]`` tiles on axis d.

        Tile extents are clamped so every tile keeps >= 2 points (the
        refactorer's minimum).
        """
        if isinstance(tiles_per_axis, int):
            tiles_per_axis = (tiles_per_axis,) * len(shape)
        if len(tiles_per_axis) != len(shape):
            raise ValueError("tiles_per_axis must match dimensionality")
        bounds = tuple(
            (0,) + tuple(hi for _, hi in axis0_bounds(n, t))
            for n, t in zip(shape, tiles_per_axis)
        )
        return cls(tuple(shape), bounds)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(b) - 1 for b in self.bounds)

    @property
    def num_tiles(self) -> int:
        return int(np.prod(self.grid_shape))

    def tile_indices(self):
        """Iterate all tile grid coordinates."""
        return product(*(range(len(b) - 1) for b in self.bounds))

    def tile_box(self, idx: tuple[int, ...]) -> tuple[slice, ...]:
        """Slices of the tile at grid coordinate ``idx``."""
        return tuple(
            slice(self.bounds[d][i], self.bounds[d][i + 1])
            for d, i in enumerate(idx)
        )

    def tiles_intersecting(
        self, roi: tuple[tuple[int, int], ...]
    ) -> list[tuple[int, ...]]:
        """Grid coordinates of tiles overlapping the (start, stop) box."""
        if len(roi) != len(self.shape):
            raise ValueError("roi must match dimensionality")
        for (lo, hi), n in zip(roi, self.shape):
            if not 0 <= lo < hi <= n:
                raise ValueError(f"roi {roi} out of range for shape {self.shape}")
        per_axis = []
        for d, (lo, hi) in enumerate(roi):
            b = self.bounds[d]
            idx = [
                i for i in range(len(b) - 1) if b[i] < hi and b[i + 1] > lo
            ]
            per_axis.append(idx)
        return list(product(*per_axis))


def tile_refactor(
    data: np.ndarray,
    grid: TileGrid,
    *,
    refactorer: Refactorer | None = None,
    workers: int | None = None,
) -> dict[tuple[int, ...], RefactoredObject]:
    """Refactor every tile independently; returns tile-id -> object.

    ``workers`` fans the (independent) tile refactors over a thread
    pool; each tile's object is bit-identical to the serial result.
    """
    if tuple(data.shape) != grid.shape:
        raise ValueError(f"data shape {data.shape} != grid shape {grid.shape}")
    refactorer = refactorer or Refactorer(4, num_planes=24)
    ids = list(grid.tile_indices())

    def _one(idx: tuple[int, ...]) -> RefactoredObject:
        return refactorer.refactor(
            np.ascontiguousarray(data[grid.tile_box(idx)]),
            measure_errors=False,
        )

    return dict(zip(ids, thread_map(_one, ids, workers=workers)))


def tile_reconstruct(
    tiles: dict[tuple[int, ...], RefactoredObject],
    grid: TileGrid,
    *,
    upto: int | None = None,
    refactorer: Refactorer | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Reassemble the full array from its tiles.

    ``workers`` fans tile reconstructions over a thread pool; each tile
    writes a disjoint box of the output, so the result is independent of
    the worker count.
    """
    refactorer = refactorer or Refactorer(4)
    first = next(iter(tiles.values()))
    out = np.empty(grid.shape, dtype=first.dtype)

    def _one(idx: tuple[int, ...]) -> None:
        # rapidslint: disable-next=RPD103 -- each tile fills a disjoint box of out, vouched via allow_shared_writes
        out[grid.tile_box(idx)] = refactorer.reconstruct(tiles[idx], upto=upto)

    thread_map(
        _one, list(grid.tile_indices()), workers=workers,
        allow_shared_writes=("out",),
    )
    return out


def tile_reconstruct_roi(
    tiles: dict[tuple[int, ...], RefactoredObject],
    grid: TileGrid,
    roi: tuple[tuple[int, int], ...],
    *,
    upto: int | None = None,
    refactorer: Refactorer | None = None,
    workers: int | None = None,
) -> tuple[np.ndarray, int]:
    """Reconstruct only the ROI box; returns (data, tiles_touched).

    ``workers`` fans the touched tiles over a thread pool; the boxes
    written are pairwise disjoint, so the result is independent of the
    worker count.
    """
    refactorer = refactorer or Refactorer(4)
    hit = grid.tiles_intersecting(roi)
    first = next(iter(tiles.values()))
    shape = tuple(hi - lo for lo, hi in roi)
    out = np.empty(shape, dtype=first.dtype)

    def _one(idx: tuple[int, ...]) -> None:
        block = refactorer.reconstruct(tiles[idx], upto=upto)
        box = grid.tile_box(idx)
        src = []
        dst = []
        for d, ((lo, hi), s) in enumerate(zip(roi, box)):
            a = max(lo, s.start)
            b = min(hi, s.stop)
            src.append(slice(a - s.start, b - s.start))
            dst.append(slice(a - lo, b - lo))
        # rapidslint: disable-next=RPD103 -- ROI boxes of distinct tiles are disjoint, vouched via allow_shared_writes
        out[tuple(dst)] = block[tuple(src)]

    thread_map(_one, hit, workers=workers, allow_shared_writes=("out",))
    return out, len(hit)
