"""Multilevel (multigrid) decomposition and recomposition kernels.

This is the numerical heart of the pMGARD substitute.  One coarsening
step along one axis performs, per 1-D line:

1. *Prediction*: values at removed (detail) nodes are predicted by
   piecewise-linear interpolation from their two surviving neighbours;
   the prediction residual is the multilevel coefficient.
2. *L2 correction* (optional but on by default, as in MGARD): the detail
   function is L2-projected onto the coarse space and added to the coarse
   node values, which is what distinguishes the MGARD multilevel
   decomposition from a plain hierarchical-surplus (interpolet) transform
   and gives it its approximation-order guarantees.

An n-D level applies the 1-D kernel along every (coarsenable) axis in
sequence — the standard tensor-product construction.  The output of the
full decomposition is a single array in *Mallat layout*: the coarse
approximation occupies the low-index corner and each level's detail
coefficients form the ring between successive corners.

Plans cover an array's trailing axes; leading axes are a never-transformed
*batch*, so a stack (measured-error prefixes, fig. 7 blocks) runs as one
sweep whose line kernels amortise their per-call overhead over it.

All kernels are fully vectorised and operate *in native layout*: the
coarse/detail shuffles are strided slice assignments along the transform
axis (no transpose copies — the last array axis stays contiguous, so the
ufunc inner loops still stream), and only the L2 correction gathers its
half-size right-hand side into an axis-first ``(nc, lines)`` block.

The L2 projection solves, per line, a tridiagonal system with the mass
matrix of the coarse hat functions, which depends on the axis length
alone.  As in MGARD the solve is a pre-processed kernel, not a library
call per block: :func:`_axis_structure` eliminates the matrix once per
length, :func:`_mass_solve` replays that on a block one row of all lines
at a time.  No pivoting is needed — the matrix is strictly diagonally
dominant (diagonal ``(h_l + h_r) / 3``, off-diagonals ``h / 6``), so
this Thomas recurrence is the operation sequence LAPACK ``dgtsv`` runs
on it.  Every step acts within one line, so a zero right-hand side
gives exact zeros and zero lines need no special case.  Decompose, the
error-measurement recomposes and every restore share the kernel, so
coefficients — hence payload bytes — do not depend on which LAPACK a
SciPy build links.  Decompose and recompose apply bit-identical
operations in reverse order: the transform round-trips to ~1e-12 (not
bit-exact, the mass solve is an inexact float inverse).

Parallelism: blocks are *tiled* along their largest non-transform axis —
contiguous spans go through :func:`repro.parallel.threads.thread_map`
(``workers=``), each tile writing its disjoint slice of a preallocated
output.  Every kernel is line-independent and the tiling itself never
enters the arithmetic, so threaded output is bit-identical to serial —
property-tested.  On the recompose path a block whose detail is entirely
zero (the fine rings of an early prefix) skips the correction and the
detail add outright; the values are what the full computation gives.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from ..parallel.threads import auto_workers, balanced_spans, thread_map
from .grid import LevelPlan, coarse_indices, detail_indices, plan_levels

__all__ = [
    "decompose",
    "recompose",
    "Ring",
    "group_rings",
]

# Cache of per-axis-length index structures; decomposition of a 3-D array
# touches only a handful of distinct lengths, so this stays tiny.  Filled
# under the lock: tiled line kernels hit this from pool threads.
_AXIS_CACHE: dict[int, dict] = {}
_AXIS_LOCK = threading.Lock()

#: Minimum lines per tile — below this the per-tile LAPACK/slice overhead
#: outweighs any parallel win and the kernels run in one block.
_MIN_TILE_ROWS = 256

#: Lines per block below which the mass solve steps through Python
#: floats instead of row-wide array operations (measured crossover: a
#: row step costs ~4.5 us however few lines it spans, a float step
#: ~0.2 us per line).
_MIN_VECTOR_LINES = 12


def _axis_structure(n: int) -> dict:
    """Precompute index maps and the banded coarse mass matrix for length n."""
    cached = _AXIS_CACHE.get(n)
    if cached is not None:
        return cached
    with _AXIS_LOCK:
        cached = _AXIS_CACHE.get(n)
        if cached is not None:
            return cached
        ci = coarse_indices(n)
        di = detail_indices(n)
        # Each detail node d has both fine-grid neighbours (d-1, d+1) on
        # the coarse grid; with the keep-every-other-node rule detail j
        # sits between coarse j and j+1 and both index sets are strided,
        # which the slice-based kernels below rely on.
        left = np.searchsorted(ci, di - 1)
        assert np.array_equal(left, np.arange(di.size))
        assert bool(np.all(ci[left + 1] == di + 1)) if di.size else True
        if n % 2:
            assert np.array_equal(ci, np.arange(0, n, 2))
            assert np.array_equal(di, np.arange(1, n, 2))
        else:
            assert np.array_equal(
                ci, np.concatenate([np.arange(0, n - 1, 2), [n - 1]])
            )
            assert np.array_equal(di, np.arange(1, n - 1, 2))
        nc = ci.size
        # Coarse-grid spacings (fine-grid units; uniform fine spacing 1).
        spacing = np.diff(ci).astype(np.float64)
        # Tridiagonal mass matrix of the hat functions on the coarse
        # grid: diagonal (h_left + h_right) / 3, both off-diagonals h / 6.
        diag = np.zeros(nc)
        diag[:-1] += spacing / 3.0
        diag[1:] += spacing / 3.0
        diag = diag.tolist()
        off = (spacing / 6.0).tolist()
        # Gaussian elimination without pivoting, once per axis length.
        mult = []
        for k in range(nc - 1):
            mult.append(off[k] / diag[k])
            diag[k + 1] = diag[k + 1] - mult[k] * off[k]
        # (fine positions, coarse positions) of the surviving nodes:
        # every other one, and the final node of an even-length line.
        nodes = [(slice(0, n, 2), slice(0, nc))] if n % 2 else [
            (slice(0, n - 1, 2), slice(0, nc - 1)),
            (slice(n - 1, n), slice(nc - 1, nc)),
        ]
        cached = {"nc": nc, "mult": mult, "diag": diag, "upper": off,
                  "nodes": nodes}
        _AXIS_CACHE[n] = cached
    return cached


def _mass_solve(load: np.ndarray, st: dict) -> None:
    """Solve the mass system in place for an axis-first ``(nc, lines)`` block.

    Rows are views spanning all lines, so one elimination step is a few
    array operations whatever the line count; on a few long lines the
    same steps on Python floats cost less than that many tiny array
    calls.  Both are IEEE double operations in one order: same bits.
    """
    if load.shape[1] >= _MIN_VECTOR_LINES:
        _thomas(list(load), st)
    else:
        for col in load.T:
            line = col.tolist()
            _thomas(line, st)
            col[:] = line


def _thomas(rows: list, st: dict) -> None:
    """Cached elimination on ``rows`` (arrays or floats): ``b[k+1] -=
    mult[k]*b[k]``, then ``b[k] = (b[k] - upper[k]*b[k+1]) / d[k]``."""
    mult, diag, upper = st["mult"], st["diag"], st["upper"]
    for k in range(len(rows) - 1):
        rows[k + 1] -= mult[k] * rows[k]
    rows[-1] /= diag[-1]
    for k in range(len(rows) - 2, -1, -1):
        rows[k] -= upper[k] * rows[k + 1]
        rows[k] /= diag[k]


def _axsl(ndim: int, axis: int, sl) -> tuple:
    """Index tuple selecting ``sl`` along ``axis`` of an ndim-D array."""
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _any_nonzero(block: np.ndarray) -> bool:
    """Whether a block has a non-zero; dense ones answer from one slab."""
    return bool(block[0].any() or block.any())


def _correction_nd(detail: np.ndarray, axis: int, st: dict) -> np.ndarray:
    """L2-project an ND detail block onto the coarse space.

    Returns the correction to *add* to the coarse block, shaped like it.
    The load vector uses the exact overlap integral of a fine hat with
    its two neighbouring coarse hats, which is h/2 = 1/2 on the
    unit-spaced fine grid.  Detail node j always sits between coarse
    positions j and j + 1 (the coarsening rule keeps every other node
    plus the final one), so coarse node j's load is half the sum of its
    (at most two) neighbouring details — built directly instead of
    scatter-adding into a zeroed buffer.
    """
    d2 = np.moveaxis(detail, axis, 0)
    rest = d2.shape[1:]
    nd = d2.shape[0]
    # Materialising 0.5 * detail makes the block contiguous axis-first;
    # the halving is the first arithmetic step of the load build anyway,
    # so this costs no extra pass.
    half2 = 0.5 * d2
    nc = st["nc"]
    m = half2.size // nd
    half = half2.reshape(nd, m)
    load = np.empty((nc, m))
    load[0] = half[0]
    np.add(half[1:nd], half[: nd - 1], out=load[1:nd])
    load[nd] = half[nd - 1]
    if nc > nd + 1:
        load[nd + 1 :] = 0.0
    _mass_solve(load, st)
    return np.moveaxis(load.reshape((nc,) + rest), 0, axis)


def _decompose_block(
    src: np.ndarray, out: np.ndarray, axis: int, correction: bool
) -> None:
    """One coarsening step along ``axis``: src -> out, [coarse | detail]."""
    n = src.shape[axis]
    st = _axis_structure(n)
    nc = st["nc"]
    nd = n - nc
    ndim = src.ndim
    coarse = out[_axsl(ndim, axis, slice(0, nc))]
    for fine, kept in st["nodes"]:
        coarse[_axsl(ndim, axis, kept)] = src[_axsl(ndim, axis, fine)]
    if nd:
        detail = out[_axsl(ndim, axis, slice(nc, n))]
        pred = (
            coarse[_axsl(ndim, axis, slice(0, nd))]
            + coarse[_axsl(ndim, axis, slice(1, nd + 1))]
        )
        pred *= 0.5
        np.subtract(
            src[_axsl(ndim, axis, slice(1, 2 * nd, 2))], pred, out=detail
        )
        if correction:
            coarse += _correction_nd(detail, axis, st)


def _recompose_block(
    src: np.ndarray, out: np.ndarray, axis: int, correction: bool
) -> None:
    """Exact inverse of :func:`_decompose_block` (same axis length)."""
    n = src.shape[axis]
    st = _axis_structure(n)
    nc = st["nc"]
    nd = n - nc
    ndim = src.ndim
    cin = src[_axsl(ndim, axis, slice(0, nc))]
    detail = src[_axsl(ndim, axis, slice(nc, n))] if nd else None
    # The fine rings of an early prefix are still all zeros: their
    # correction is exactly zero and there is nothing to add to the
    # interpolated values, so such a block is interpolation only.
    if nd and not _any_nonzero(detail):
        detail = None
    corr = None
    if correction and detail is not None:
        corr = _correction_nd(detail, axis, st)
    # Corrected coarse values go straight to their interleaved output
    # positions.
    for fine, kept in st["nodes"]:
        fine, kept = _axsl(ndim, axis, fine), _axsl(ndim, axis, kept)
        if corr is None:
            out[fine] = cin[kept]
        else:
            np.subtract(cin[kept], corr[kept], out=out[fine])
    if nd:
        # Detail node j sits between coarse j and j + 1, which already
        # live at even output positions 2j and 2j + 2 (never the parked
        # last value of an even-length line), so the interpolation reads
        # the even positions and writes the odd ones — element-disjoint
        # strided views of the same output block.
        od = out[_axsl(ndim, axis, slice(1, 2 * nd, 2))]
        np.add(
            out[_axsl(ndim, axis, slice(0, 2 * nd - 1, 2))],
            out[_axsl(ndim, axis, slice(2, 2 * nd + 1, 2))],
            out=od,
        )
        od *= 0.5
        if detail is not None:
            od += detail


def _apply_axis(block_fn, src: np.ndarray, dst: np.ndarray, axis: int,
                workers: int | None) -> None:
    """Run a line-local block kernel, tiled along a non-transform axis.

    ``block_fn(src_block, dst_block)`` must fill ``dst_block`` from
    ``src_block`` line by line; tiles are contiguous spans of the
    largest non-transform axis, each writing its own disjoint slice of
    the preallocated result.
    """
    ndim = src.ndim
    n = src.shape[axis]
    lines = src.size // n if n else 0
    w = auto_workers(workers, src.size)
    tile_ax = None
    best = 0
    for a in range(ndim):
        if a != axis and src.shape[a] > best:
            best = src.shape[a]
            tile_ax = a
    parts = 1
    if tile_ax is not None:
        parts = min(w, lines // _MIN_TILE_ROWS, src.shape[tile_ax])
    if parts <= 1:
        block_fn(src, dst)
        return
    spans = balanced_spans(src.shape[tile_ax], parts)

    def _tile(span: tuple[int, int]) -> None:
        lo, hi = span
        sl = _axsl(ndim, tile_ax, slice(lo, hi))
        block_fn(src[sl], dst[sl])

    thread_map(_tile, spans, workers=w, allow_shared_writes=("dst",))


def _sweep(out: np.ndarray, plans: list[LevelPlan], block_fn,
           workers: int | None, *, inverse: bool) -> None:
    """Run ``block_fn(src, dst, axis)`` per level of ``plans`` (coarse to
    fine, axes reversed, if ``inverse``) over the trailing axes of ``out``;
    leading axes are a batch every line kernel just sees more lines of."""
    grid = plans[0].fine_shape
    lead = out.ndim - len(grid)
    if lead < 0 or out.shape[lead:] != grid:
        raise ValueError(f"plans cover shape {grid}, array has {out.shape}")
    for plan in reversed(plans) if inverse else plans:
        axes = plan.coarsened_axes[::-1] if inverse else plan.coarsened_axes
        corner_view = out[(...,) + tuple(slice(0, s) for s in plan.fine_shape)]
        src = corner_view
        for i, ax in enumerate(axes):
            # The final axis of a level writes straight back into the
            # Mallat corner (the kernels tolerate strided outputs), so
            # multi-axis levels need no copy-back pass.
            if i == len(axes) - 1 and src is not corner_view:
                dst = corner_view
            else:
                dst = np.empty(src.shape, dtype=np.float64)
            _apply_axis(
                lambda s, d, a=ax + lead: block_fn(s, d, a), src, dst,
                ax + lead, workers,
            )
            src = dst
        if src is not corner_view:
            corner_view[...] = src


def decompose(
    u: np.ndarray, plans: list[LevelPlan] | None = None, *,
    max_levels: int = 32, correction: bool = True,
    workers: int | None = None,
) -> tuple[np.ndarray, list[LevelPlan]]:
    """Full multilevel decomposition to Mallat layout.

    Returns ``(mallat, plans)`` where ``mallat`` is float64 with the same
    shape as ``u``.  ``plans`` (fine-to-coarse) fully determines the
    layout; pass it back to :func:`recompose`.  Axes before the ones the
    plans cover are a batch, each member transformed exactly as alone.
    ``workers`` tiles the line batches over threads; output is
    bit-identical for any value.
    """
    u = np.asarray(u)
    if plans is None:
        plans = plan_levels(u.shape, max_levels)
    out = u.astype(np.float64, copy=True)
    _sweep(
        out, plans, lambda s, d, a: _decompose_block(s, d, a, correction),
        workers, inverse=False,
    )
    return out, plans


def recompose(
    mallat: np.ndarray, plans: list[LevelPlan], *, correction: bool = True,
    workers: int | None = None, overwrite: bool = False,
) -> np.ndarray:
    """Invert :func:`decompose` from Mallat layout back to nodal values.

    Leading axes the plans do not cover are a batch, as in
    :func:`decompose`.  Each member comes out equal to its own
    recompose, but the sign of a zero can differ: a detail ring that is
    all zero is skipped (interpolation only) per call, so a member whose
    ring is zero in a stack whose ring is not gets ``+0.0`` added, which
    turns its ``-0.0`` values into ``+0.0``.  ``overwrite=True`` lets a
    caller that owns ``mallat`` (a float64 array it no longer needs)
    have it transformed in place and returned, instead of paying for a
    copy.
    """
    # np.array copies; np.asarray only where the dtype makes it.
    out = (np.asarray if overwrite else np.array)(mallat, dtype=np.float64)
    _sweep(
        out, plans, lambda s, d, a: _recompose_block(s, d, a, correction),
        workers, inverse=True,
    )
    return out


class Ring(NamedTuple):
    """Where one coefficient group lives in a Mallat-layout array.

    ``corner`` slices the group's level corner; ``mask`` marks the group
    inside it — the corner minus the next coarser corner — and is
    ``None`` for group 0, the coarsest corner itself.  Both directions
    visit a group in C order within its corner.
    """

    corner: tuple[slice, ...]
    mask: np.ndarray | None
    size: int

    def take(self, mallat: np.ndarray) -> np.ndarray:
        """The group's coefficients as a flat array (a view only where
        the corner is contiguous)."""
        block = mallat[self.corner]
        return block.reshape(-1) if self.mask is None else block[self.mask]

    def put(self, mallat: np.ndarray, values: np.ndarray) -> None:
        """Write the group's coefficients, in :meth:`take` order."""
        block = mallat[self.corner]
        if self.mask is None:
            block[...] = values.reshape(block.shape)
        else:
            block[self.mask] = values


# Ring masks are pure functions of the plan chain.  An entry holds one
# byte per coefficient of every level corner (~1.14x the element count of
# a 3-D array).  LRU, bounded in bytes; a hit reorders the entries, so
# hits take the lock too.  Masks are read-only since callers share them.
_RING_CACHE: OrderedDict[tuple, tuple[list[Ring], int]] = OrderedDict()
_RING_LOCK = threading.Lock()
#: The service's requests are (n, 16, 16) arrays, n = 16..256: at most
#: ~75 KB of masks a shape, so this keeps a hundred such shapes, or three
#: 128^3 objects (2.4 MB each), resident.
_RING_CACHE_BYTES = 8 << 20


def group_rings(plans: list[LevelPlan]) -> list[Ring]:
    """Where each coefficient group lives in the Mallat array of ``plans``.

    Group 0 is the final coarse approximation corner; group ``i`` for
    ``i >= 1`` is the detail ring added when refining from level ``L-i``
    back toward the original grid (coarse-to-fine order, matching how the
    progressive reconstruction consumes them).  The groups partition the
    array.  Results are cached (a fresh list of shared, read-only masks).
    """
    key = (plans[-1].coarse_shape, *(p.fine_shape for p in plans))
    with _RING_LOCK:
        hit = _RING_CACHE.get(key)
        if hit is not None:
            _RING_CACHE.move_to_end(key)
            return list(hit[0])
        rings = _build_rings(plans)
        _RING_CACHE[key] = (rings, sum(r.mask.nbytes for r in rings[1:]))
        while sum(n for _, n in _RING_CACHE.values()) > _RING_CACHE_BYTES:
            _RING_CACHE.popitem(last=False)
    return list(rings)


def _build_rings(plans: list[LevelPlan]) -> list[Ring]:
    inner = plans[-1].coarse_shape
    rings = [Ring(tuple(slice(0, s) for s in inner), None, math.prod(inner))]
    for plan in reversed(plans):
        mask = np.ones(plan.fine_shape, dtype=bool)
        mask[tuple(slice(0, s) for s in inner)] = False
        mask.setflags(write=False)
        rings.append(Ring(
            tuple(slice(0, s) for s in plan.fine_shape), mask,
            math.prod(plan.fine_shape) - math.prod(inner),
        ))
        inner = plan.fine_shape
    return rings
