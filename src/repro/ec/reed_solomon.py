"""Systematic Reed-Solomon erasure codes over GF(2^8).

This is the replacement for ``liberasurecode`` used by RAPIDS.  An
``(k, m)`` code splits a payload into ``k`` equal data fragments and
produces ``m`` parity fragments; the original payload is recoverable from
*any* ``k`` of the ``k + m`` fragments (the MDS property), which is
exactly the guarantee the availability model in the paper relies on.

Construction: start from a ``(k+m) x k`` Vandermonde matrix, then
row-reduce so the top ``k x k`` block is the identity.  Row operations
preserve the any-k-rows-invertible property, and the identity block makes
the code systematic (data fragments are verbatim slices of the payload,
so the common no-failure read path needs no decode at all).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels, matrix

__all__ = ["RSCode", "pad_to_fragments", "unpad"]

_MAX_TOTAL = 256

#: Per-code bound on cached decode/reconstruct plans.  Each entry is a
#: pointer to an interned :class:`~repro.ec.kernels.EncodePlan`; the cap
#: only guards pathological callers cycling through many erasure
#: patterns of a wide code.
_PLAN_CACHE_LIMIT = 512


def _systematic_generator(k: int, n: int) -> np.ndarray:
    """Build the systematic ``n x k`` generator matrix."""
    vand = matrix.vandermonde(n, k)
    top_inv = matrix.invert(vand[:k])
    gen = matrix.matmul(vand, top_inv)
    # Guard against construction bugs: the top block must be identity.
    assert matrix.is_identity(gen[:k])
    return gen


@dataclass(frozen=True)
class RSCode:
    """A systematic (k, m) Reed-Solomon erasure code.

    Parameters
    ----------
    k:
        Number of data fragments.
    m:
        Number of parity fragments.

    Notes
    -----
    ``k + m`` must not exceed 256 (the field size bounds the number of
    distinct evaluation points).  Instances are cheap: the generator
    matrix is built once in ``__post_init__`` and cached.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.k + self.m > _MAX_TOTAL:
            raise ValueError(
                f"k + m = {self.k + self.m} exceeds GF(256) limit of {_MAX_TOTAL}"
            )
        object.__setattr__(self, "_gen", _systematic_generator(self.k, self.n))
        # Planned encode kernel over the parity rows (the identity block
        # needs no arithmetic) plus per-erasure-pattern decode plans.
        object.__setattr__(
            self,
            "_parity_plan",
            kernels.plan_for(self._gen[self.k :]) if self.m else None,
        )
        object.__setattr__(self, "_decode_plans", {})

    @property
    def n(self) -> int:
        """Total number of fragments (k + m)."""
        return self.k + self.m

    @property
    def generator(self) -> np.ndarray:
        """The ``n x k`` systematic generator matrix (read-only view)."""
        g = self._gen.view()
        g.flags.writeable = False
        return g

    # -- encoding -----------------------------------------------------

    def encode(self, data: bytes | np.ndarray) -> list[np.ndarray]:
        """Encode a payload into ``n`` fragments.

        The payload is padded to a multiple of ``k`` (see
        :func:`pad_to_fragments`); each returned fragment is a uint8 array
        of identical length ``ceil((len(data)+8)/k)`` rounded for padding.
        Fragment ``i`` for ``i < k`` is a verbatim slice of the padded
        payload; fragments ``k..n-1`` are parity.
        """
        shards = pad_to_fragments(data, self.k)
        if self.m == 0:
            return [shards[i] for i in range(self.k)]
        parity = self._parity_plan.apply(shards)
        return [shards[i] for i in range(self.k)] + [parity[i] for i in range(self.m)]

    # -- decoding -----------------------------------------------------

    def decode(self, fragments: dict[int, np.ndarray]) -> bytes:
        """Recover the original payload from any ``k`` fragments.

        Parameters
        ----------
        fragments:
            Mapping from fragment index (0-based, data fragments first)
            to the fragment bytes.  At least ``k`` entries are required.
        """
        shards = self.decode_shards(fragments)
        return unpad(shards)

    def _gather_rows(
        self, fragments: dict[int, np.ndarray]
    ) -> tuple[list[int], list[np.ndarray]]:
        """Select the k lowest-index fragments as validated byte rows."""
        if len(fragments) < self.k:
            raise ValueError(
                f"need at least {self.k} fragments to decode, got {len(fragments)}"
            )
        idx = sorted(fragments)[: self.k]
        bad = [i for i in idx if not 0 <= i < self.n]
        if bad:
            raise ValueError(f"fragment indices out of range: {bad}")
        rows = [
            np.frombuffer(memoryview(fragments[i]), dtype=np.uint8) for i in idx
        ]
        lengths = [r.size for r in rows]
        if len(set(lengths)) > 1:
            # Name the offenders rather than letting shape errors surface
            # from deep inside the kernel: the expected length is the one
            # the majority of fragments agree on.
            expected, _ = Counter(lengths).most_common(1)[0]
            offending = [
                (i, n) for i, n in zip(idx, lengths) if n != expected
            ]
            raise ValueError(
                "fragments have unequal lengths: expected "
                f"{expected} bytes but "
                + ", ".join(f"fragment {i} has {n}" for i, n in offending)
            )
        return idx, rows

    def _decode_plan(self, idx: tuple[int, ...]) -> kernels.EncodePlan:
        """Cached planned kernel for the inverted ``gen[idx]`` submatrix."""
        plan = self._decode_plans.get(idx)
        if plan is None:
            inv = matrix.invert(self._gen[list(idx)])
            plan = kernels.plan_for(inv)
            if len(self._decode_plans) >= _PLAN_CACHE_LIMIT:
                self._decode_plans.clear()
            self._decode_plans[idx] = plan
        return plan

    def decode_shards(self, fragments: dict[int, np.ndarray]) -> np.ndarray:
        """Recover the (k, L) data-shard matrix from any k fragments."""
        idx, rows = self._gather_rows(fragments)
        # Fast path: all k data fragments present, no algebra needed.
        if idx == list(range(self.k)):
            return np.stack(rows)
        return self._decode_plan(tuple(idx)).apply(rows)

    def reconstruct_fragment(
        self,
        fragments: dict[int, np.ndarray],
        target: int,
    ) -> np.ndarray:
        """Rebuild a single lost fragment (data or parity) from any k others.

        Uses a cached single-row plan for ``gen[target] @ gen[idx]^-1``,
        so repair applies one combined pass over the survivors instead of
        a full decode followed by a re-encode.
        """
        if not 0 <= target < self.n:
            raise ValueError(f"fragment index out of range: {target}")
        idx, rows = self._gather_rows(fragments)
        if target in idx:
            return rows[idx.index(target)].copy()
        key = (tuple(idx), target)
        plan = self._decode_plans.get(key)
        if plan is None:
            inv = matrix.invert(self._gen[list(idx)])
            coeffs = matrix.matmul(self._gen[target : target + 1], inv)
            plan = kernels.plan_for(coeffs)
            if len(self._decode_plans) >= _PLAN_CACHE_LIMIT:
                self._decode_plans.clear()
            self._decode_plans[key] = plan
        return plan.apply(rows)[0]


def pad_to_fragments(data: bytes | np.ndarray, k: int) -> np.ndarray:
    """Split ``data`` into a (k, L) uint8 matrix with an 8-byte length header.

    The original length is prepended little-endian so that :func:`unpad`
    can strip the zero padding without out-of-band metadata.
    """
    raw = np.frombuffer(memoryview(data), dtype=np.uint8)
    header = np.frombuffer(np.uint64(raw.size).tobytes(), dtype=np.uint8)
    total = raw.size + 8
    frag_len = -(-total // k)  # ceil division
    padded = np.zeros(frag_len * k, dtype=np.uint8)
    padded[:8] = header
    padded[8 : 8 + raw.size] = raw
    return padded.reshape(k, frag_len)


def unpad(shards: np.ndarray) -> bytes:
    """Inverse of :func:`pad_to_fragments`: flatten and strip padding."""
    flat = np.ascontiguousarray(shards).reshape(-1)
    payload_len = int(np.frombuffer(flat[:8].tobytes(), dtype=np.uint64)[0])
    if payload_len > flat.size - 8:
        raise ValueError(
            f"corrupt length header: {payload_len} > {flat.size - 8} available"
        )
    return flat[8 : 8 + payload_len].tobytes()
