"""Grid hierarchies for the multilevel (multigrid) decomposition.

The decomposition coarsens each axis by keeping every other node while
always retaining both endpoints, the same rule MGARD uses for arbitrary
(non-dyadic) grid sizes.  For an axis of length ``n`` the coarse axis has
``ceil(n / 2) + (1 if n is even else 0)`` nodes in the odd case and the
even case respectively — concretely, indices ``0, 2, 4, ...`` plus the
last index when ``n`` is even.  Axes that reach the minimum size stop
coarsening while the others continue, so arrays with mixed-magnitude
shapes still decompose cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["coarse_indices", "detail_indices", "LevelPlan", "plan_levels", "MIN_AXIS"]

#: Axes shorter than this cannot be coarsened further.
MIN_AXIS = 3


def coarse_indices(n: int) -> np.ndarray:
    """Indices of the nodes kept on the coarse grid for an axis of length n.

    Every other node starting at 0, always including the final node so the
    domain endpoints survive at every level.
    """
    if n < 2:
        raise ValueError(f"axis too short to form a grid: {n}")
    idx = np.arange(0, n, 2)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def detail_indices(n: int) -> np.ndarray:
    """Indices of the nodes removed (detail nodes) when coarsening."""
    keep = np.zeros(n, dtype=bool)
    keep[coarse_indices(n)] = True
    return np.nonzero(~keep)[0]


@dataclass(frozen=True)
class LevelPlan:
    """Shape bookkeeping for one coarsening step of an nD array.

    Attributes
    ----------
    fine_shape / coarse_shape:
        Array shapes before and after this coarsening step.
    coarsened_axes:
        Which axes actually shrank (axes at MIN_AXIS or below pass through).
    """

    fine_shape: tuple[int, ...]
    coarse_shape: tuple[int, ...]
    coarsened_axes: tuple[int, ...]


def plan_levels(shape: tuple[int, ...], max_levels: int) -> list[LevelPlan]:
    """Plan up to ``max_levels`` coarsening steps for an array shape.

    Stops early when no axis can shrink further.  The returned list is
    ordered fine-to-coarse (level 0 operates on the original shape).
    """
    if any(n < 2 for n in shape):
        raise ValueError(f"every axis must have >= 2 nodes, got shape {shape}")
    plans: list[LevelPlan] = []
    cur = tuple(shape)
    for _ in range(max_levels):
        axes = tuple(ax for ax, n in enumerate(cur) if n >= MIN_AXIS)
        if not axes:
            break
        nxt = tuple(
            len(coarse_indices(n)) if ax in axes else n for ax, n in enumerate(cur)
        )
        plans.append(LevelPlan(fine_shape=cur, coarse_shape=nxt, coarsened_axes=axes))
        cur = nxt
    if not plans:
        raise ValueError(f"shape {shape} cannot be coarsened even once")
    return plans
