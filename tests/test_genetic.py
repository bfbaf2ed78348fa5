"""Tests for the GA solver on the gathering problem."""

import numpy as np
import pytest

from repro.optimize import GASolver, GatheringModel, exhaustive_gathering


def small_model(seed=0, available=None):
    rng = np.random.default_rng(seed)
    n = 6
    if available is None:
        available = np.ones(n, dtype=bool)
    return GatheringModel(
        fragment_sizes=np.array([1e9, 8e9]),
        needed=np.array([2, 4]),
        bandwidths=rng.uniform(0.4e9, 3e9, size=n),
        available=np.asarray(available),
    )


class TestSolving:
    def test_finds_optimum_on_small_instance(self):
        model = small_model()
        _, opt = exhaustive_gathering(model)
        res = GASolver(seed=0).solve(model, max_generations=60)
        assert res.value == pytest.approx(opt, rel=1e-9)

    def test_population_always_feasible(self):
        avail = np.ones(6, dtype=bool)
        avail[2] = False
        model = small_model(available=avail)
        res = GASolver(seed=1).solve(model, max_generations=20)
        assert model.feasible(res.x)
        assert not res.x[2].any()

    def test_history_monotone(self):
        model = small_model(seed=5)
        res = GASolver(seed=2).solve(model, max_generations=40)
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))

    def test_deterministic(self):
        model = small_model()
        a = GASolver(seed=7).solve(model, max_generations=15)
        b = GASolver(seed=7).solve(model, max_generations=15)
        assert a.value == b.value
        assert np.array_equal(a.x, b.x)

    def test_beats_random_baseline(self):
        model = small_model(seed=9)
        rng = np.random.default_rng(0)
        rand_best = min(
            model.evaluate(model.random_solution(rng)) for _ in range(200)
        )
        res = GASolver(seed=5).solve(model, max_generations=40)
        assert res.value <= rand_best + 1e-9

    def test_comparable_to_aco(self):
        """GA and ACO land within 5% of each other at matched budgets —
        the problem, not the metaheuristic, sets the floor."""
        from repro.optimize import ACOSolver

        model = small_model(seed=11)
        ga = GASolver(seed=0).solve(model, max_generations=50)
        aco = ACOSolver(seed=0).solve(model, max_iterations=50)
        assert ga.value == pytest.approx(aco.value, rel=0.05)
