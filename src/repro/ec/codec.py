"""Fragment-level erasure-coding API used by the RAPIDS pipeline.

Wraps :class:`repro.ec.reed_solomon.RSCode` with the vocabulary of the
paper: a *fault-tolerance configuration* ``m`` on ``n`` storage systems
means the level is split into ``k = n - m`` data fragments plus ``m``
parity fragments, one fragment per system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .reed_solomon import RSCode

__all__ = ["ECConfig", "ErasureCodec", "EncodedLevel", "encoded_fragment_len"]


def encoded_fragment_len(k: int, payload_len: int) -> int:
    """Exact byte length of each fragment encoding a ``payload_len`` payload.

    Mirrors :func:`repro.ec.reed_solomon.pad_to_fragments`: the payload
    gains an 8-byte length header and is zero-padded to a multiple of
    ``k``.  The streaming pipeline uses this to size shared-memory
    segments and tile chunk tables before any fragment bytes exist.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if payload_len < 0:
        raise ValueError(f"payload_len must be >= 0, got {payload_len}")
    return -(-(payload_len + 8) // k)


@lru_cache(maxsize=512)
def _code(k: int, m: int) -> RSCode:
    return RSCode(k, m)


@dataclass(frozen=True)
class ECConfig:
    """Fault-tolerance configuration of one refactored level.

    ``n`` fragments total, of which ``m`` are parity; tolerates any ``m``
    concurrent storage-system outages (paper §3.2).
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.m < self.n:
            raise ValueError(f"require 0 <= m < n, got n={self.n}, m={self.m}")

    @property
    def k(self) -> int:
        """Number of data fragments (n - m)."""
        return self.n - self.m


@dataclass
class EncodedLevel:
    """The n erasure-coded fragments of one refactored level."""

    config: ECConfig
    fragments: list[np.ndarray]
    payload_size: int
    level_index: int = 0
    _blobs: list[bytes] | None = field(default=None, repr=False, compare=False)

    @property
    def fragment_nbytes(self) -> int:
        return int(self.fragments[0].nbytes) if self.fragments else 0

    def fragment_blobs(self) -> list[bytes]:
        """The fragments as ``bytes``, materialised once and shared.

        Placement, checksumming, and fragment-file writes all need the
        same serialised view; caching it here keeps the pipeline to one
        ``tobytes`` copy per fragment instead of one per consumer.
        """
        if self._blobs is None:
            self._blobs = [
                np.ascontiguousarray(f).tobytes() for f in self.fragments
            ]
        return self._blobs


class ErasureCodec:
    """Encode/decode refactored levels with per-level FT configurations.

    The planned kernels run inline; callers fan whole levels out over
    threads.
    """

    def __init__(self, n: int) -> None:
        if not 2 <= n <= 256:
            raise ValueError(f"n must be in [2, 256], got {n}")
        self.n = n
        #: Optional chaos seam (see :mod:`repro.chaos`): consulted at
        #: the top of every decode.
        self.injector = None

    def attach_injector(self, injector) -> None:
        """Attach (or clear) a chaos injector."""
        self.injector = injector

    def encode_level(
        self,
        payload: bytes | np.ndarray,
        m: int,
        *,
        level_index: int = 0,
    ) -> EncodedLevel:
        """Erasure-code one level payload with ``m`` parity fragments."""
        cfg = ECConfig(self.n, m)
        code = _code(cfg.k, cfg.m)
        nbytes = (
            len(payload) if isinstance(payload, (bytes, bytearray)) else payload.nbytes
        )
        return EncodedLevel(
            config=cfg,
            fragments=code.encode(payload),
            payload_size=int(nbytes),
            level_index=level_index,
        )

    def decode_level(
        self, *,
        config: ECConfig,
        fragments: dict[int, np.ndarray],
        level_index: int | None = None,
    ) -> bytes:
        """Decode a level from a fragment map (index -> fragment).

        Raises :class:`ValueError` if fewer than ``k`` fragments are
        supplied — the caller (the restoration component) treats that as
        "this level is unavailable".
        """
        if self.injector is not None:
            self.injector.check(
                "ec.decode", level=level_index, k=config.k, m=config.m,
            )
        code = _code(config.k, config.m)
        return code.decode(fragments)

    def decode_chunk(
        self, config: ECConfig, fragments: dict[int, np.ndarray],
        offset: int, size: int, *, level_index: int | None = None,
    ) -> bytes:
        """Decode one tile: the chunk at ``[offset, offset + size)`` of
        every fragment of a tiled level."""
        chunks = {i: f[offset : offset + size] for i, f in fragments.items()}
        return self.decode_level(
            config=config, fragments=chunks, level_index=level_index
        )

    def repair_fragment(
        self,
        config: ECConfig,
        fragments: dict[int, np.ndarray],
        target: int,
    ) -> np.ndarray:
        """Rebuild a lost fragment for re-placement on a new storage system."""
        code = _code(config.k, config.m)
        return code.reconstruct_fragment(fragments, target)
