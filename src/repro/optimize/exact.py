"""Exact solver for the gathering model (Eq. 10) by dynamic programming.

A plan's cost separates over systems.  System i serving the level set
S_i adds ``|S_i| * sum_{j in S_i} f_j / B_i`` to Eq. 10's total
transfer time (the average divides that total by the constant request
count sum_j k_j), and its slowest transfer takes
``|S_i| * max_{j in S_i} f_j / B_i`` (the makespan is the max over
systems).  So a DP over systems whose state is the per-level count of
fragments chosen so far is exact.  It has prod_j (k_j + 1) states and
2^l moves per system, and it does the same work on every machine: no
clock, no seed.  At the product's l = 4 and n <= 16 that is at most
43,680 states.

Ties go to the lowest system id (within a system, to the lowest level),
and fragment i lives on system i, so ties prefer data fragments over
parity.  Above :data:`MAX_STATES` the solver falls back to a seeded
:class:`~repro.optimize.aco.ACOSolver` run with an iteration count fixed
at n * l and no wall-clock budget.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .aco import ACOSolver
from .minlp import GatheringModel

__all__ = ["exact_gathering"]

#: Largest DP state count solved exactly (l = 4, n = 16 needs 43,680).
MAX_STATES = 65_536
#: Relative slack under which two plan costs count as tied.
_TIE = 1e-12


def exact_gathering(model: GatheringModel) -> tuple[np.ndarray, float]:
    """An optimal exactly-k_j selection of ``model``; returns (x, value)."""
    needed = tuple(int(k) for k in model.needed)
    shape = tuple(k + 1 for k in needed)
    if math.prod(shape) > MAX_STATES:
        res = ACOSolver(seed=0).solve(
            model, warm_start=model.naive_solution(),
            max_iterations=model.n * model.levels,
        )
        return res.x, res.value

    sizes = [float(f) for f in model.fragment_sizes]
    # A move takes one fragment of each picked level from one system,
    # listed in preference order: (1, 1, ..) first, so that a lower
    # level on a lower system wins a tie.
    moves = []
    for pick in itertools.product((1, 0), repeat=model.levels):
        chosen = [j for j in range(model.levels) if pick[j]]
        if model.objective == "average":
            work = len(chosen) * sum(sizes[j] for j in chosen)
        else:
            work = len(chosen) * max((sizes[j] for j in chosen), default=0.0)
        src = tuple(slice(0, k + 1 - p) for k, p in zip(needed, pick))
        dst = tuple(slice(p, None) for p in pick)
        moves.append((pick, chosen, work, src, dst))

    add = np.add if model.objective == "average" else np.maximum
    # cost[i][c]: the cheapest way for systems i.. to raise the per-level
    # counts c to exactly k.
    cost = [None] * model.n + [np.full(shape, np.inf)]
    cost[-1][needed] = 0.0
    for i in range(model.n - 1, -1, -1):
        if not model.available[i]:
            cost[i] = cost[i + 1]
            continue
        best = np.full(shape, np.inf)
        for _, _, work, src, dst in moves:
            view = best[src]
            np.minimum(view, add(work / model.bandwidths[i], cost[i + 1][dst]),
                       out=view)
        cost[i] = best

    x = np.zeros((model.n, model.levels), dtype=np.int8)
    state = (0,) * model.levels
    for i in range(model.n):
        if not model.available[i]:
            continue
        goal = cost[i][state] * (1.0 + _TIE)
        for pick, chosen, work, _, _ in moves:
            nxt = tuple(c + p for c, p in zip(state, pick))
            if any(c > k for c, k in zip(nxt, needed)):
                continue
            if add(work / model.bandwidths[i], cost[i + 1][nxt]) <= goal:
                x[i, chosen] = 1
                state = nxt
                break
    return x, model.evaluate(x)
