"""Planned, cache-blocked GF(256) erasure-coding kernels.

This is the tuned replacement for driving :func:`repro.ec.matrix.matmul`
directly on the encode/decode hot paths.  ``matrix.matmul`` gathers an
``(r, c)`` temporary from the 64 KiB full multiplication table on every
one of its ``k`` inner iterations — ``k`` large allocations and ``k``
passes over an output that does not fit in cache.  The kernels here
instead follow the layout liberasurecode's tuned backends use:

* **Plan once.**  An :class:`EncodePlan` is built per coefficient matrix
  (generator parity block, inverted decode submatrix, or a single
  reconstruction row) and cached, so table lookups, zero/identity
  classification, and matrix inversions never repeat per call.
* **Pair tables.**  Each non-trivial coefficient uses a 65536-entry
  :func:`repro.ec.gf256.pair_mul_table`, multiplying two payload bytes
  per gather through a ``uint16`` view — halving index traffic.
* **Cache blocking.**  The fragment length is processed in chunks sized
  to stay L2-resident (64 KiB by default); all accumulation happens in
  preallocated, aligned scratch buffers with in-place
  ``np.bitwise_xor`` — zero allocations per chunk.  A plan runs inline;
  the pipeline fans whole levels out over threads instead.

The kernels are bit-exact with the ``matrix.matmul`` reference path —
the property tests in ``tests/test_kernels.py`` assert byte-identical
fragments across codes, payload sizes, and erasure patterns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import gf256

__all__ = ["EncodePlan", "plan_for", "planned_matmul", "DEFAULT_CHUNK"]

#: Column-chunk size in bytes.  64 KiB keeps one input chunk, the
#: accumulator, and the scratch buffer comfortably L2-resident; measured
#: optimum on the bench machine (see benchmarks/bench_kernels.py).
DEFAULT_CHUNK = 1 << 16

#: Sentinel marking a coefficient of 1: the gather is skipped entirely
#: and the input chunk is XORed (or copied) straight into the accumulator.
_IDENTITY = object()


class EncodePlan:
    """A precomputed, chunked GF(256) matrix-vector kernel.

    Applies a fixed ``(r, k)`` coefficient matrix to ``k`` equal-length
    byte rows, producing ``r`` output rows — the single primitive behind
    RS encode (parity rows), decode (inverted submatrix), and fragment
    reconstruction (one combined row).  Build via :func:`plan_for` to
    get caching.
    """

    def __init__(self, coeffs: np.ndarray, *, chunk: int = DEFAULT_CHUNK) -> None:
        coeffs = np.ascontiguousarray(coeffs, dtype=np.uint8)
        if coeffs.ndim != 2:
            raise ValueError("EncodePlan expects a 2-D coefficient matrix")
        if chunk < 2 or chunk % 2:
            raise ValueError(f"chunk must be a positive even byte count, got {chunk}")
        self.coeffs = coeffs
        self.r, self.k = coeffs.shape
        self.chunk = chunk
        # Per-(i, j) lookup: None for 0 (skip), _IDENTITY for 1, else the
        # shared pair table for the coefficient value.
        self._tables: list[list] = [
            [
                None
                if c == 0
                else _IDENTITY
                if c == 1
                else gf256.pair_mul_table(int(c))
                for c in row
            ]
            for row in coeffs
        ]

    # -- buffers ------------------------------------------------------

    def _make_buffers(self):
        """Aligned per-worker scratch: input block, accumulator, gather."""
        inbuf = np.empty((self.k, self.chunk), dtype=np.uint8)
        accbuf = np.empty(self.chunk, dtype=np.uint8)
        return (
            inbuf,
            inbuf.view(np.uint16),
            accbuf,
            accbuf.view(np.uint16),
            np.empty(self.chunk // 2, dtype=np.uint16),
        )

    # -- kernel -------------------------------------------------------

    def _apply_span(self, srcs, out, lo: int, hi: int, bufs) -> None:
        """Encode columns ``[lo, hi)`` into ``out`` using ``bufs``."""
        inbuf, in16, accbuf, acc16, scr16 = bufs
        w = hi - lo
        we = (w + 1) & ~1  # even-rounded width for the uint16 view
        nh = we // 2
        # Stage the chunk into the aligned block buffer: rows of the
        # caller's fragments may start at odd offsets (frag_len is not
        # forced even), and a bounded copy is cheaper than unaligned
        # gathers.  The pad byte is zeroed so the uint16 lane is defined.
        for j in range(self.k):
            inbuf[j, :w] = srcs[j][lo:hi]
            if we != w:
                inbuf[j, w] = 0
        for i in range(self.r):
            acc = acc16[:nh]
            tables = self._tables[i]
            started = False
            for j in range(self.k):
                t = tables[j]
                if t is None:
                    continue
                src = in16[j, :nh]
                if t is _IDENTITY:
                    if started:
                        np.bitwise_xor(acc, src, out=acc)
                    else:
                        acc[:] = src
                        started = True
                elif started:
                    s = scr16[:nh]
                    np.take(t, src, out=s)
                    np.bitwise_xor(acc, s, out=acc)
                else:
                    np.take(t, src, out=acc)
                    started = True
            if not started:  # all-zero coefficient row
                accbuf[:w] = 0
            out[i, lo:hi] = accbuf[:w]

    def apply(self, rows) -> np.ndarray:
        """Apply the plan to ``k`` byte rows, returning ``(r, L)`` output.

        ``rows`` is a ``(k, L)`` uint8 array **or** a sequence of ``k``
        equal-length 1-D uint8 arrays — the latter avoids the
        ``np.stack`` copy the unplanned decode path paid per call.
        """
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            srcs = [rows[j] for j in range(rows.shape[0])]
        else:
            srcs = [np.asarray(r, dtype=np.uint8).reshape(-1) for r in rows]
        if len(srcs) != self.k:
            raise ValueError(f"plan expects {self.k} input rows, got {len(srcs)}")
        L = srcs[0].size
        if any(s.size != L for s in srcs):
            raise ValueError("input rows must have equal lengths")
        out = np.empty((self.r, L), dtype=np.uint8)
        if L == 0:
            return out
        bufs = self._make_buffers()
        for lo in range(0, L, self.chunk):
            self._apply_span(srcs, out, lo, min(lo + self.chunk, L), bufs)
        return out


@lru_cache(maxsize=256)
def _plan_from_bytes(buf: bytes, r: int, k: int, chunk: int) -> EncodePlan:
    coeffs = np.frombuffer(buf, dtype=np.uint8).reshape(r, k)
    return EncodePlan(coeffs, chunk=chunk)


def plan_for(coeffs: np.ndarray) -> EncodePlan:
    """Return the cached :class:`EncodePlan` for a coefficient matrix.

    Keyed by the matrix bytes, so every ``(k, m)`` code — and every
    decode submatrix inverse — pays plan construction exactly once per
    process.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.uint8)
    if coeffs.ndim != 2:
        raise ValueError("plan_for expects a 2-D coefficient matrix")
    return _plan_from_bytes(
        coeffs.tobytes(), coeffs.shape[0], coeffs.shape[1], DEFAULT_CHUNK
    )


def planned_matmul(
    a: np.ndarray,
    b,
) -> np.ndarray:
    """Drop-in planned/chunked replacement for :func:`matrix.matmul`.

    ``a`` is the small ``(r, k)`` coefficient matrix; ``b`` is ``(k, L)``
    (or a sequence of ``k`` rows) with large ``L``.  Bit-exact with the
    reference implementation.
    """
    return plan_for(np.asarray(a, dtype=np.uint8)).apply(b)
