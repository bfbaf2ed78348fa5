"""Error metrics and the MGARD-style theoretical error bound.

The paper quantifies reconstruction quality with the relative L-infinity
error (Eq. 3) and bounds the reconstruction error of the multilevel
representation by

    e <= (1 + sqrt(3)/2) * sum_l max_x |u_mc[x] - u~_mc[x]|

where the sum runs over decomposition levels and the max over each
level's multilevel coefficients.  For bitplane-encoded coefficients the
per-coefficient error after keeping the first ``b`` planes is at most the
weight of the first missing plane, which gives the closed-form bound in
:func:`theoretical_bound`.
"""

from __future__ import annotations

import numpy as np

from .bitplane import PlaneSet

__all__ = ["relative_linf_error", "MGARD_CONSTANT", "theoretical_bound"]

#: The (1 + sqrt(3)/2) stability constant from the MGARD error analysis.
MGARD_CONSTANT = 1.0 + np.sqrt(3.0) / 2.0


#: Elements per block in the chunked max reductions below: the one
#: difference/abs scratch block (512 KiB) stays cache-resident instead
#: of two full-array temporaries being allocated per call.
_ERROR_CHUNK = 1 << 16


def _chunked_absmax(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """max|a| (or max|a - b|) of float64 arrays through one scratch block.

    A max of per-block maxima is exactly the global max, so the blocked
    evaluation is bit-identical to the one-shot expression.
    """
    a = a.reshape(-1)
    if a.size == 0:
        # Same zero-size ValueError the unchunked np.max raised.
        return float(np.max(np.abs(a)))
    if b is not None:
        b = b.reshape(-1)
    scratch = np.empty(min(a.size, _ERROR_CHUNK))
    out = 0.0
    for lo in range(0, a.size, _ERROR_CHUNK):
        blk = a[lo : lo + _ERROR_CHUNK]
        tmp = scratch[: blk.size]
        if b is None:
            np.abs(blk, out=tmp)
        else:
            np.subtract(blk, b[lo : lo + _ERROR_CHUNK], out=tmp)
            np.abs(tmp, out=tmp)
        out = max(out, float(tmp.max()))
    return out


def relative_linf_error(
    original: np.ndarray, reconstructed: np.ndarray, *, data_max: float | None = None
) -> float:
    """Relative L-infinity error of Eq. 3: max|d - d~| / max|d|.

    A reconstruction of all-zeros therefore scores exactly 1.0, the
    paper's penalty value e0 for "no level could be restored".
    ``data_max`` is max|d| for callers that already hold it.
    """
    if np.shape(original) != np.shape(reconstructed):
        raise ValueError(
            f"shape mismatch: {np.shape(original)} vs {np.shape(reconstructed)}"
        )
    original = np.ascontiguousarray(original, dtype=np.float64)
    reconstructed = np.ascontiguousarray(reconstructed, dtype=np.float64)
    denom = _chunked_absmax(original) if data_max is None else data_max
    if denom == 0.0:
        return 0.0 if _chunked_absmax(reconstructed) == 0.0 else np.inf
    return _chunked_absmax(original, reconstructed) / denom


def theoretical_bound(
    planesets: list[PlaneSet], kept: list[int], data_max: float
) -> float:
    """Upper bound on the relative L-infinity reconstruction error.

    Parameters
    ----------
    planesets:
        The full per-group encodings (one per decomposition level).
    kept:
        Number of magnitude planes retained for each group.
    data_max:
        max|d| of the original data, to normalise the absolute bound.
    """
    if len(kept) != len(planesets):
        raise ValueError("kept must align with planesets")
    if data_max <= 0:
        raise ValueError("data_max must be positive")
    total = 0.0
    for ps, b in zip(planesets, kept):
        if ps.count == 0:
            continue
        if not 0 <= b <= ps.num_planes:
            raise ValueError(f"kept planes {b} out of range for group")
        if b >= ps.num_planes:
            # Only the quantisation floor remains.
            err = 2.0 ** (ps.exponent - ps.num_planes + 1)
        elif b == 0:
            # Nothing kept: the coefficient itself, bounded by 2**(exp+1).
            err = 2.0 ** (ps.exponent + 1)
        else:
            # First missing plane dominates; the remaining tail doubles it.
            err = 2.0 ** (ps.exponent - b + 1)
        total += err
    return MGARD_CONSTANT * total / data_max
