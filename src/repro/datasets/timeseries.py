"""Time-evolving synthetic fields (simulation snapshot sequences).

Campaigns store *sequences* of snapshots, and the refactorer handles 4-D
(t, z, y, x) arrays exactly like 3-D ones — the time axis is just
another coarsenable dimension, and temporal smoothness compresses the
same way spatial smoothness does.  :func:`advected_sequence` produces
physically flavoured evolution so time-correlation is realistic: a base
field advected along a constant velocity with gradual decorrelation
(frozen-turbulence flavour).
"""

from __future__ import annotations

import numpy as np

from .synthetic import gaussian_random_field

__all__ = ["advected_sequence"]


def advected_sequence(
    steps: int,
    shape: tuple[int, ...] = (33, 33, 33),
    *,
    decorrelation: float = 0.02,
    seed: int = 0,
) -> np.ndarray:
    """A field advected by a uniform velocity, slowly decorrelating.

    Returns a float32 array of shape ``(steps, *shape)``.  The field
    moves one grid cell per step along the first axis;
    ``decorrelation`` is the fraction of field variance replaced by
    fresh noise each step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 <= decorrelation < 1.0:
        raise ValueError("decorrelation must be in [0, 1)")
    velocity = (1.0,) + (0.0,) * (len(shape) - 1)
    rng = np.random.default_rng(seed)
    field = gaussian_random_field(shape, slope=4.0, seed=seed, dtype=np.float64)
    out = np.empty((steps,) + tuple(shape), dtype=np.float32)
    offset = np.zeros(len(shape))
    for t in range(steps):
        out[t] = field.astype(np.float32)
        offset += np.asarray(velocity)
        shift = tuple(int(round(o)) for o in offset)
        advected = np.roll(field, shift, axis=tuple(range(len(shape))))
        offset -= np.round(offset)
        if decorrelation > 0:
            fresh = gaussian_random_field(
                shape, slope=4.0, seed=seed + 1000 + t, dtype=np.float64
            )
            advected = (
                np.sqrt(1 - decorrelation) * advected
                + np.sqrt(decorrelation) * fresh
            )
        field = advected
    return out
