"""Genetic-algorithm solver for the gathering MINLP.

A third solver family alongside the ACO (MIDACO substitute) and the
exhaustive oracle.  MIDACO itself is frequently compared against GAs in
the MINLP literature, so having both lets the solver ablation say
something about the *problem* (how hard is Eq. 10 really?) rather than
one algorithm.

Representation: the feasible-by-construction encoding — for each level
j, a set of exactly ``k_j`` distinct available systems.  Crossover mixes
parents per level (uniform set crossover with repair to the exact
count); mutation swaps a selected system for an unused one, independently per
level.  Elitist generational replacement with tournament selection,
plus random immigrants each generation to keep diversity on the small
solution spaces where premature convergence is the failure mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .minlp import GatheringModel

__all__ = ["GASolver", "GAResult"]


@dataclass
class GAResult:
    """Outcome of one GA run."""

    x: np.ndarray
    value: float
    generations: int
    evaluations: int
    elapsed: float
    history: list[float]


class GASolver:
    """Elitist genetic algorithm over exact-count gathering selections.

    A population of 32 keeps its 2 best each generation, picks parents
    by 3-way tournament and mutates each level with probability 0.15.
    """

    population = 32
    elite = 2
    tournament = 3
    mutation_rate = 0.15

    def __init__(self, *, seed: int | None = None) -> None:
        self.seed = seed

    def solve(
        self, model: GatheringModel, *, max_generations: int = 100
    ) -> GAResult:
        rng = np.random.default_rng(self.seed)
        start = time.perf_counter()
        pop = [model.random_solution(rng) for _ in range(self.population)]
        fitness = [model.evaluate(x) for x in pop]
        evaluations = len(pop)
        order = np.argsort(fitness)
        best_x, best_val = pop[order[0]].copy(), fitness[order[0]]
        history = [best_val]

        gen = 0
        while gen < max_generations:
            gen += 1
            nxt = [pop[i].copy() for i in order[: self.elite]]
            # Random immigrants guard against premature convergence.
            immigrants = max(1, self.population // 16)
            for _ in range(immigrants):
                nxt.append(model.random_solution(rng))
            while len(nxt) < self.population:
                pa = self._tournament(pop, fitness, rng)
                pb = self._tournament(pop, fitness, rng)
                child = self._crossover(model, pa, pb, rng)
                child = self._mutate(model, child, rng)
                nxt.append(child)
            pop = nxt
            fitness = [model.evaluate(x) for x in pop]
            evaluations += len(pop)
            order = np.argsort(fitness)
            if fitness[order[0]] < best_val:
                best_x, best_val = pop[order[0]].copy(), fitness[order[0]]
            history.append(best_val)
        return GAResult(
            x=best_x, value=float(best_val), generations=gen,
            evaluations=evaluations, elapsed=time.perf_counter() - start,
            history=history,
        )

    def _tournament(self, pop, fitness, rng) -> np.ndarray:
        idx = rng.choice(len(pop), size=self.tournament, replace=False)
        winner = min(idx, key=lambda i: fitness[i])
        return pop[winner]

    @staticmethod
    def _crossover(model, pa, pb, rng) -> np.ndarray:
        """Per-level uniform set crossover with exact-count repair."""
        child = np.zeros_like(pa)
        for j in range(model.levels):
            a = set(np.nonzero(pa[:, j])[0].tolist())
            b = set(np.nonzero(pb[:, j])[0].tolist())
            keep = list(a & b)
            pool = list(a ^ b)
            rng.shuffle(pool)
            need = int(model.needed[j])
            chosen = (keep + pool)[:need]
            if len(chosen) < need:
                avail = [
                    i
                    for i in np.nonzero(model.available)[0]
                    if i not in chosen
                ]
                rng.shuffle(avail)
                chosen += avail[: need - len(chosen)]
            child[chosen, j] = 1
        return child

    def _mutate(self, model, x, rng) -> np.ndarray:
        """Per level, with probability mutation_rate, swap one selected
        system for an unused one."""
        x = x.copy()
        for j in range(model.levels):
            if rng.random() >= self.mutation_rate:
                continue
            used = np.nonzero(x[:, j] == 1)[0]
            free = np.nonzero(model.available & (x[:, j] == 0))[0]
            if used.size and free.size:
                a = int(rng.choice(used))
                b = int(rng.choice(free))
                x[a, j], x[b, j] = 0, 1
        return x
