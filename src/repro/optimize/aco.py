"""Ant Colony Optimization for the gathering MINLP (MIDACO substitute).

MIDACO, the solver the paper calls with a 60-second budget, is an
evolutionary MINLP solver based on Ant Colony Optimization.  This module
implements the same algorithm family for the binary gathering model:

* a pheromone matrix tau[i, j] biases which systems each ant picks for
  each level, combined with a bandwidth heuristic eta[i] = B_i;
* each ant constructs a feasible selection (exactly k_j fragments per
  level), which is then polished with the model's swap local search;
* pheromones evaporate and the iteration-best/global-best solutions
  deposit, with min/max clamping (MMAS style) to avoid stagnation;
* like the paper's usage, the solver accepts a warm start (the Naive
  strategy) and a wall-clock budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .minlp import GatheringModel

__all__ = ["ACOSolver", "ACOResult"]


@dataclass
class ACOResult:
    """Outcome of one ACO run."""

    x: np.ndarray
    value: float
    iterations: int
    evaluations: int
    elapsed: float
    history: list[float]


class ACOSolver:
    """MMAS-style ant colony solver for :class:`GatheringModel`.

    A colony of 16 ants per iteration picks systems with probability
    proportional to tau^alpha * eta^beta (alpha 1, beta 2); pheromone
    evaporates at rate rho = 0.15 per iteration.

    Parameters
    ----------
    local_search:
        Polish each iteration's best ant with swap moves.
    seed:
        RNG seed (deterministic for a given budget in iterations; a
        wall-clock budget introduces scheduling nondeterminism).
    """

    ants = 16
    alpha = 1.0
    beta = 2.0
    rho = 0.15

    def __init__(
        self, *, local_search: bool = True, seed: int | None = None
    ) -> None:
        self.local_search = local_search
        self.seed = seed

    def solve(
        self,
        model: GatheringModel,
        *,
        warm_start: np.ndarray | None = None,
        time_budget: float | None = None,
        max_iterations: int = 200,
    ) -> ACOResult:
        """Run the colony until the time budget or iteration cap.

        ``warm_start`` seeds the global best (the paper warm-starts from
        the Naive strategy to accelerate the search).
        """
        rng = np.random.default_rng(self.seed)
        start = time.perf_counter()
        n, levels = model.n, model.levels
        tau = np.ones((n, levels))
        tau_max, tau_min = 1.0, 1.0 / (2.0 * n)
        eta = model.bandwidths / model.bandwidths.max()

        evaluations = 0
        if warm_start is not None:
            best_x = model.repair(warm_start, rng)
        else:
            best_x = model.naive_solution()
        best_val = model.evaluate(best_x)
        evaluations += 1
        history = [best_val]

        it = 0
        while it < max_iterations:
            if time_budget is not None and time.perf_counter() - start >= time_budget:
                break
            it += 1
            iter_best_x, iter_best_val = None, float("inf")
            for _ in range(self.ants):
                x = self._construct(model, tau, eta, rng)
                val = model.evaluate(x)
                evaluations += 1
                if val < iter_best_val:
                    iter_best_x, iter_best_val = x, val
            if self.local_search and iter_best_x is not None:
                iter_best_x = model.local_search(iter_best_x, max_rounds=5)
                iter_best_val = model.evaluate(iter_best_x)
                evaluations += 1
            if iter_best_val < best_val:
                best_x, best_val = iter_best_x, iter_best_val
            # Evaporate, then deposit from the global best (MMAS).
            tau *= 1.0 - self.rho
            deposit = self.rho * tau_max
            tau += deposit * best_x
            np.clip(tau, tau_min, tau_max, out=tau)
            history.append(best_val)

        return ACOResult(
            x=np.asarray(best_x, dtype=np.int8),
            value=float(best_val),
            iterations=it,
            evaluations=evaluations,
            elapsed=time.perf_counter() - start,
            history=history,
        )

    def _construct(
        self,
        model: GatheringModel,
        tau: np.ndarray,
        eta: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One ant: sample k_j distinct available systems per level with
        probability proportional to tau^alpha * eta^beta."""
        x = np.zeros((model.n, model.levels), dtype=np.int8)
        avail = np.nonzero(model.available)[0]
        for j in range(model.levels):
            weights = tau[avail, j] ** self.alpha * eta[avail] ** self.beta
            total = weights.sum()
            if total <= 0:
                probs = None
            else:
                probs = weights / total
            pick = rng.choice(
                avail, size=int(model.needed[j]), replace=False, p=probs
            )
            x[pick, j] = 1
        return x
