"""Arithmetic over the Galois field GF(2^8).

This module is the lowest layer of the erasure-coding substrate.  All
operations are implemented with precomputed discrete-log / antilog tables
so that element-wise products over large NumPy arrays reduce to a pair of
table lookups and an integer add — there are no per-element Python loops
on any hot path.

The field is constructed from the AES polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B) with generator 3, the same field used
by ``liberasurecode``'s Reed-Solomon backends, so fragment bytes produced
here are interoperable with any standard RS implementation over the same
polynomial and evaluation points.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

__all__ = [
    "PRIMITIVE_POLY",
    "add",
    "mul",
    "div",
    "inv",
    "full_mul_table",
    "pair_mul_table",
    "EXP_TABLE",
    "LOG_TABLE",
]

#: AES field polynomial x^8 + x^4 + x^3 + x + 1; 3 generates its
#: multiplicative group.
PRIMITIVE_POLY = 0x11B


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build antilog (exp) and log tables for the field.

    ``exp[i] = g**i`` for ``i`` in ``[0, 255)``; the exp table is doubled
    to 510 entries so that ``exp[log[a] + log[b]]`` never needs an
    explicit ``% 255`` reduction (the sum of two logs is at most 508).
    """
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # Multiply x by the generator 3 = x*2 ^ x, reducing mod the poly.
        x2 = x << 1
        if x2 & 0x100:
            x2 ^= PRIMITIVE_POLY
        x = x2 ^ x
    exp[255:510] = exp[0:255]
    # log[0] is undefined; keep a sentinel that, combined with the zero
    # masks in mul/div, is never consulted.
    log[0] = 0
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()


def add(a, b):
    """Field addition (XOR). Accepts scalars or uint8 arrays."""
    return np.bitwise_xor(a, b)


def mul(a, b):
    """Element-wise field multiplication of scalars or arrays.

    Broadcasts like ``numpy.multiply``.  Zero operands yield zero.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    la = LOG_TABLE[a]
    lb = LOG_TABLE[b]
    out = EXP_TABLE[la + lb]
    zero = (a == 0) | (b == 0)
    if zero.ndim == 0:
        return np.uint8(0) if zero else out[()]
    out = np.where(zero, np.uint8(0), out)
    return out


def div(a, b):
    """Element-wise field division ``a / b``.

    Raises :class:`ZeroDivisionError` if any divisor element is zero.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    la = LOG_TABLE[a]
    lb = LOG_TABLE[b]
    out = EXP_TABLE[la - lb + 255]
    zero = a == 0
    if zero.ndim == 0:
        return np.uint8(0) if zero else out[()]
    return np.where(zero, np.uint8(0), out)


def inv(a):
    """Multiplicative inverse. Raises on zero."""
    return div(np.uint8(1), a)


# Full 256x256 multiplication table built lazily; ~64 KiB, used by the
# matrix kernels to turn GEMM-over-GF into row gathers.  The fill is
# guarded by a lock: encode/decode now fan out over thread_map, and an
# unguarded check-then-act would rebuild the table concurrently.
_FULL_TABLE: np.ndarray | None = None
_FULL_TABLE_LOCK = threading.Lock()


def full_mul_table() -> np.ndarray:
    """Return the complete 256x256 multiplication table (cached)."""
    global _FULL_TABLE
    if _FULL_TABLE is None:
        with _FULL_TABLE_LOCK:
            if _FULL_TABLE is None:
                xs = np.arange(256, dtype=np.uint8)
                _FULL_TABLE = mul(xs[:, None], xs[None, :])
    return _FULL_TABLE


@functools.lru_cache(maxsize=256)
def pair_mul_table(c: int) -> np.ndarray:
    """The 65536-entry table multiplying *byte pairs* by constant ``c``.

    Entry ``v`` holds ``mul(c, lo) | mul(c, hi) << 8`` for
    ``v = lo | hi << 8``, so gathering with a ``uint16`` view of a byte
    buffer multiplies two bytes per lookup.  Because GF multiplication is
    applied byte-wise on both sides, the result is endianness-agnostic:
    whichever byte the host packs into the low half comes back out in
    the low half.  Each table is 128 KiB; the cache is bounded at the
    256 possible constants (~32 MiB worst case, far less in practice
    since generator matrices reuse few distinct coefficients).
    """
    if not 0 <= c < 256:
        raise ValueError(f"field element out of range: {c}")
    row = full_mul_table()[c].astype(np.uint16, copy=False)
    # [hi, lo] -> row[lo] | row[hi] << 8, flattened so index = hi*256 + lo.
    return (row[None, :] | (row[:, None] << 8)).reshape(-1)
