"""Exhaustive search for the gathering model (test oracle).

Only usable at toy sizes — the solution space is
``prod_j C(#available, k_j)`` — but it certifies the exact DP and the
ACO solver in the tests and in ``examples/gathering_optimization.py``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .minlp import GatheringModel

__all__ = ["exhaustive_gathering", "solution_space_size"]


def solution_space_size(model: GatheringModel) -> int:
    """Number of candidate selections with exactly k_j fragments/level."""
    from math import comb

    avail = int(model.available.sum())
    total = 1
    for k in model.needed:
        total *= comb(avail, int(k))
    return total


def exhaustive_gathering(
    model: GatheringModel, *, limit: int = 2_000_000
) -> tuple[np.ndarray, float]:
    """Enumerate every exactly-k_j selection; returns (best_x, best_value).

    Raises :class:`ValueError` if the space exceeds ``limit`` candidates.
    Exact counts are the model's constraint
    (:meth:`~repro.optimize.minlp.GatheringModel.feasible`), so this is
    the whole feasible set.
    """
    size = solution_space_size(model)
    if size > limit:
        raise ValueError(
            f"solution space has {size} candidates, above the limit {limit}"
        )
    avail = np.nonzero(model.available)[0]
    per_level = [
        list(itertools.combinations(avail.tolist(), int(k))) for k in model.needed
    ]
    best_x, best_val = None, float("inf")
    for combo in itertools.product(*per_level):
        x = np.zeros((model.n, model.levels), dtype=np.int8)
        for j, systems in enumerate(combo):
            x[list(systems), j] = 1
        val = model.evaluate(x)
        if val < best_val:
            best_x, best_val = x, val
    return best_x, best_val
