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

All kernels are fully vectorised and operate *in native layout*: the
coarse/detail shuffles are strided slice assignments along the transform
axis (no transpose copies — the last array axis stays contiguous, so the
ufunc inner loops still stream), and only the tridiagonal mass solves
gather their half-size right-hand side into an axis-first block for
``scipy.linalg.solve_banded``.  Decompose and recompose apply
bit-identical floating point operations in reverse order, so the
transform round-trips to ~1e-12 relative accuracy (it is not bit-exact
because the mass solve is an inexact float inverse).

Parallelism: blocks are *tiled* along their largest non-transform axis —
contiguous spans go through :func:`repro.parallel.threads.thread_map`
(``workers=``), each tile writing its disjoint slice of a preallocated
output.  Every kernel is line-independent (the banded solve treats RHS
columns independently, bitwise), and the tiling itself never enters the
arithmetic, so threaded output is bit-identical to serial —
property-tested.  On the recompose path, lines whose detail block is
exactly zero skip the correction solve (their correction is identically
zero); the predicate is per line, so the skip set never depends on tile
boundaries, and callers reconstructing from dense (all-planes) payloads
can disable the scan with ``detect_zero_rows=False`` — the output is
bitwise the same either way.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.linalg import solve_banded

from ..parallel.threads import balanced_spans, default_workers, thread_map
from .grid import LevelPlan, coarse_indices, detail_indices, plan_levels

__all__ = [
    "auto_workers",
    "decompose",
    "recompose",
    "decompose_axis",
    "recompose_axis",
    "level_flat_indices",
]

# Cache of per-axis-length index structures; decomposition of a 3-D array
# touches only a handful of distinct lengths, so this stays tiny.  Filled
# under the lock: tiled line kernels hit this from pool threads.
_AXIS_CACHE: dict[int, dict] = {}
_AXIS_LOCK = threading.Lock()

#: Minimum lines per tile — below this the per-tile LAPACK/slice overhead
#: outweighs any parallel win and the kernels run in one block.
_MIN_TILE_ROWS = 256

#: Array size below which a refactor or reconstruct whose caller left
#: ``workers`` unset runs inline.  Creating and joining the dozen or so
#: short-lived pools of one call costs more than two threads win back
#: until about a million coefficients (measured on 2 CPUs: inline is
#: 1.3-2.9x faster up to 64 Ki elements and still ahead at 880 Ki; the
#: pool leads from 2 Mi).  Depends on the input size only.
_MIN_POOL_ELEMENTS = 1 << 20


def auto_workers(workers: int | None, elements: int) -> int:
    """``workers`` if given, else a fan-out chosen from the array size."""
    if workers is not None:
        return workers
    return 1 if elements < _MIN_POOL_ELEMENTS else default_workers()


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
        # Tridiagonal mass matrix for hat functions on the coarse grid, in
        # solve_banded's (1, 1) ab-form: row 0 = superdiag, 1 = diag,
        # 2 = subdiag.
        ab = np.zeros((3, nc))
        ab[1, :-1] += spacing / 3.0
        ab[1, 1:] += spacing / 3.0
        ab[0, 1:] = spacing / 6.0
        ab[2, :-1] = spacing / 6.0
        cached = {"mass_ab": ab, "nc": nc}
        _AXIS_CACHE[n] = cached
    return cached


def _axsl(ndim: int, axis: int, sl) -> tuple:
    """Index tuple selecting ``sl`` along ``axis`` of an ndim-D array."""
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _solve_cols(detail_cols: np.ndarray, st: dict) -> np.ndarray:
    """L2-project detail lines (axis-first columns) onto the coarse space.

    ``detail_cols`` is (nd, m): one line per column.  Returns the
    (nc, m) correction to *add* to the coarse values.  The load vector
    uses the exact overlap integral of a fine hat with its two
    neighbouring coarse hats, which is h/2 = 1/2 on the unit-spaced fine
    grid.  Detail node j always sits between coarse positions j and
    j + 1 (the coarsening rule keeps every other node plus the final
    one), so coarse node j's load is half the sum of its (at most two)
    neighbouring details — built directly instead of scatter-adding into
    a zeroed buffer.
    """
    nd, m = detail_cols.shape
    nc = st["nc"]
    half = 0.5 * detail_cols
    load = np.empty((nc, m))
    load[0] = half[0]
    np.add(half[1:nd], half[: nd - 1], out=load[1:nd])
    load[nd] = half[nd - 1]
    if nc > nd + 1:
        load[nd + 1 :] = 0.0
    # Mass solve, batched over lines (RHS columns).  ``mass_ab`` is the
    # cached shared matrix and must NOT be overwritten; the RHS is our
    # own scratch.  Columns are solved independently (bitwise), which is
    # what makes line tiling exact.
    return solve_banded(
        (1, 1), st["mass_ab"], load, check_finite=False, overwrite_b=True
    )


def _correction_nd(detail: np.ndarray, axis: int, st: dict) -> np.ndarray:
    """Correction for an ND detail block, shaped like the coarse block."""
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
    corr = solve_banded(
        (1, 1), st["mass_ab"], load, check_finite=False, overwrite_b=True
    )
    return np.moveaxis(corr.reshape((nc,) + rest), 0, axis)


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
    if n % 2:
        coarse[...] = src[_axsl(ndim, axis, slice(0, n, 2))]
    else:
        # Even length: every other node plus the final one survives.
        coarse[_axsl(ndim, axis, slice(0, nc - 1))] = src[
            _axsl(ndim, axis, slice(0, n - 1, 2))
        ]
        coarse[_axsl(ndim, axis, slice(nc - 1, nc))] = src[
            _axsl(ndim, axis, slice(n - 1, n))
        ]
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
    src: np.ndarray,
    out: np.ndarray,
    axis: int,
    correction: bool,
    detect_zero_rows: bool,
) -> None:
    """Exact inverse of :func:`_decompose_block` (same axis length)."""
    n = src.shape[axis]
    st = _axis_structure(n)
    nc = st["nc"]
    nd = n - nc
    ndim = src.ndim
    cin = src[_axsl(ndim, axis, slice(0, nc))]
    detail = src[_axsl(ndim, axis, slice(nc, n))] if nd else None
    corr = None
    detail_all_zero = False
    if correction and nd:
        if detect_zero_rows:
            # A line whose detail block is exactly zero has an
            # exactly-zero correction (zero RHS solves to zero);
            # skipping its solve keeps early-prefix reconstructions —
            # where most rings are still all zeros — from paying
            # full-price mass solves.  The predicate is per line, so the
            # skip set never depends on tile boundaries.
            d2 = np.moveaxis(detail, axis, 0)
            active = d2.any(axis=0)
            if not active.any():
                detail_all_zero = True
            elif active.all():
                corr = _correction_nd(detail, axis, st)
            else:
                corr_full = np.zeros((nc,) + active.shape)
                corr_full[:, active] = _solve_cols(d2[:, active], st)
                corr = np.moveaxis(corr_full, 0, axis)
        else:
            corr = _correction_nd(detail, axis, st)
    # Corrected coarse values go straight to their interleaved output
    # positions (every other node; even lengths park the last coarse
    # value at the final position).
    if n % 2:
        oc = out[_axsl(ndim, axis, slice(0, n, 2))]
        if corr is None:
            oc[...] = cin
        else:
            np.subtract(cin, corr, out=oc)
    else:
        oc = out[_axsl(ndim, axis, slice(0, n - 1, 2))]
        oc_last = out[_axsl(ndim, axis, slice(n - 1, n))]
        head = _axsl(ndim, axis, slice(0, nc - 1))
        tail = _axsl(ndim, axis, slice(nc - 1, nc))
        if corr is None:
            oc[...] = cin[head]
            oc_last[...] = cin[tail]
        else:
            np.subtract(cin[head], corr[head], out=oc)
            np.subtract(cin[tail], corr[tail], out=oc_last)
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
        # Adding an all-zero detail block is skipped outright; the kept
        # values are what a fresh shorter decode scatters there anyway.
        if not detail_all_zero:
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
    w = workers if workers is not None else default_workers()
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


def decompose_axis(
    arr: np.ndarray, axis: int, *, correction: bool = True,
    workers: int | None = None,
) -> np.ndarray:
    """One coarsening step along one axis; output is [coarse|detail] ordered."""
    arr = np.asarray(arr)
    axis = axis % arr.ndim
    out = np.empty(arr.shape, dtype=np.float64)
    _apply_axis(
        lambda s, d: _decompose_block(s, d, axis, correction),
        arr, out, axis, workers,
    )
    return out


def recompose_axis(
    arr: np.ndarray, axis: int, n: int, *, correction: bool = True,
    workers: int | None = None, detect_zero_rows: bool = True,
) -> np.ndarray:
    """Inverse of :func:`decompose_axis` (n = original axis length)."""
    arr = np.asarray(arr)
    axis = axis % arr.ndim
    if arr.shape[axis] != n:
        raise ValueError(
            f"axis {axis} has length {arr.shape[axis]}, expected {n}"
        )
    out = np.empty(arr.shape, dtype=np.float64)
    _apply_axis(
        lambda s, d: _recompose_block(
            s, d, axis, correction, detect_zero_rows
        ),
        arr, out, axis, workers,
    )
    return out


def _sweep(out: np.ndarray, levels, block_fn, workers: int | None) -> None:
    """Run ``block_fn(src, dst, axis)`` per ``(fine_shape, axes)`` level."""
    for fine_shape, axes in levels:
        corner_view = out[tuple(slice(0, s) for s in fine_shape)]
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
                lambda s, d, a=ax: block_fn(s, d, a), src, dst, ax, workers
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
    layout; pass it back to :func:`recompose`.  ``workers`` tiles the
    line batches over threads; output is bit-identical for any value.
    """
    u = np.asarray(u)
    if plans is None:
        plans = plan_levels(u.shape, max_levels)
    out = u.astype(np.float64, copy=True)
    _sweep(
        out, [(p.fine_shape, p.coarsened_axes) for p in plans],
        lambda s, d, a: _decompose_block(s, d, a, correction), workers,
    )
    return out, plans


def recompose(
    mallat: np.ndarray, plans: list[LevelPlan], *, correction: bool = True,
    workers: int | None = None, detect_zero_rows: bool = True,
) -> np.ndarray:
    """Invert :func:`decompose` from Mallat layout back to nodal values.

    ``detect_zero_rows=False`` disables the per-line zero-detail scan —
    a pure speed hint for dense (all-planes-present) inputs; the output
    is bitwise identical either way.
    """
    out = np.array(mallat, dtype=np.float64, copy=True)
    _sweep(
        out, [(p.fine_shape, p.coarsened_axes[::-1]) for p in reversed(plans)],
        lambda s, d, a: _recompose_block(s, d, a, correction, detect_zero_rows),
        workers,
    )
    return out


# Mallat group-index lists are pure functions of (plans, shape) and cost
# a full fancy-indexing sweep to build; reconstruction used to pay that
# sweep on every call.  Bounded, lock-guarded cache; entries are marked
# read-only since callers share them.
_INDEX_CACHE: dict[tuple, list[np.ndarray]] = {}
_INDEX_LOCK = threading.Lock()
_INDEX_CACHE_MAX = 8


def level_flat_indices(
    plans: list[LevelPlan], shape: tuple[int, ...]
) -> list[np.ndarray]:
    """Flat indices (into the Mallat array) of each group's coefficients.

    Group 0 is the final coarse approximation corner; group ``i`` for
    ``i >= 1`` is the detail ring added when refining from level ``L-i``
    back toward the original grid (coarse-to-fine order, matching how the
    progressive reconstruction consumes them).  The groups partition
    ``range(prod(shape))``.

    Results are cached per ``(plans, shape)`` and returned as read-only
    arrays (a fresh list, shared array objects) — treat them as
    immutable.
    """
    key = (tuple(plans), tuple(shape))
    groups = _INDEX_CACHE.get(key)
    if groups is None:
        with _INDEX_LOCK:
            groups = _INDEX_CACHE.get(key)
            if groups is None:
                groups = _build_flat_indices(list(plans), tuple(shape))
                for g in groups:
                    g.setflags(write=False)
                if len(_INDEX_CACHE) >= _INDEX_CACHE_MAX:
                    _INDEX_CACHE.pop(next(iter(_INDEX_CACHE)))
                _INDEX_CACHE[key] = groups
    return list(groups)


def _build_flat_indices(
    plans: list[LevelPlan], shape: tuple[int, ...]
) -> list[np.ndarray]:
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    groups: list[np.ndarray] = []
    prev_corner = plans[-1].coarse_shape
    groups.append(
        flat[tuple(slice(0, s) for s in prev_corner)].reshape(-1).copy()
    )
    for plan in reversed(plans):
        corner = tuple(slice(0, s) for s in plan.fine_shape)
        region = flat[corner]
        mask = np.ones(plan.fine_shape, dtype=bool)
        mask[tuple(slice(0, s) for s in prev_corner)] = False
        groups.append(region[mask].reshape(-1).copy())
        prev_corner = plan.fine_shape
    return groups
