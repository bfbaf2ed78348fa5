"""Tests for the gathering MINLP model, ACO solver, and oracle."""

import numpy as np
import pytest

from repro.optimize import (
    ACOSolver,
    GatheringModel,
    exhaustive_gathering,
    solution_space_size,
)


def small_model(objective="average", available=None, seed=0):
    rng = np.random.default_rng(seed)
    n = 6
    bw = rng.uniform(0.4e9, 3e9, size=n)
    if available is None:
        available = np.ones(n, dtype=bool)
    return GatheringModel(
        fragment_sizes=np.array([1e9, 8e9]),
        needed=np.array([2, 4]),
        bandwidths=bw,
        available=np.asarray(available),
        objective=objective,
    )


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            GatheringModel(
                np.array([1.0]), np.array([1, 2]), np.ones(3), np.ones(3, bool)
            )
        with pytest.raises(ValueError):
            GatheringModel(
                np.array([1.0]), np.array([0]), np.ones(3), np.ones(3, bool)
            )
        with pytest.raises(ValueError):
            GatheringModel(
                np.array([1.0]), np.array([4]), np.ones(3), np.ones(3, bool)
            )
        with pytest.raises(ValueError):
            GatheringModel(
                np.array([1.0]),
                np.array([1]),
                np.ones(3),
                np.ones(3, bool),
                objective="best",
            )

    def test_unavailable_capacity_check(self):
        avail = np.array([True, True, False, False, False, False])
        with pytest.raises(ValueError):
            small_model(available=avail)  # level needs 4 > 2 available

    def test_feasibility(self):
        m = small_model()
        x = m.naive_solution()
        assert m.feasible(x)
        x2 = x.copy()
        x2[:, 0] = 0
        assert not m.feasible(x2)
        assert m.evaluate(x2) == float("inf")

    def test_padding_is_infeasible(self):
        """Eq. 10 asks for exactly k_j fragments per level.  A second
        copy of level 1 from the idle third system would pull the
        average down from 50.5 to 34.0 without helping the restore."""
        m = GatheringModel(
            np.array([100.0, 1.0]), np.array([1, 1]), np.ones(3),
            np.ones(3, dtype=bool),
        )
        exact = np.array([[1, 0], [0, 1], [0, 0]])
        padded = np.array([[1, 0], [0, 1], [0, 1]])
        assert m.evaluate(exact) == pytest.approx(50.5)
        assert m.transfer_times(padded).sum() / 3 == pytest.approx(34.0)
        assert not m.feasible(padded)
        assert m.evaluate(padded) == float("inf")
        assert exhaustive_gathering(m)[1] == pytest.approx(50.5)

    def test_feasible_rejects_unavailable(self):
        avail = np.ones(6, dtype=bool)
        avail[0] = False
        m = small_model(available=avail)
        x = m.naive_solution()
        assert m.feasible(x)
        x[0, 0] = 1
        assert not m.feasible(x)

    def test_objective_matches_hand_calc(self):
        m = GatheringModel(
            fragment_sizes=np.array([100.0]),
            needed=np.array([2]),
            bandwidths=np.array([10.0, 20.0, 5.0]),
            available=np.ones(3, dtype=bool),
        )
        x = np.array([[1], [1], [0]])
        # times: 100/10=10 and 100/20=5; average 7.5
        assert m.evaluate(x) == pytest.approx(7.5)

    def test_contention_in_objective(self):
        m = GatheringModel(
            fragment_sizes=np.array([100.0, 100.0]),
            needed=np.array([1, 1]),
            bandwidths=np.array([10.0, 1.0]),
            available=np.ones(2, dtype=bool),
        )
        both_fast = np.array([[1, 1], [0, 0]])
        # both on system 0: each gets 5 B/s -> 20s each, avg 20
        assert m.evaluate(both_fast) == pytest.approx(20.0)
        split = np.array([[1, 0], [0, 1]])
        # 100/10=10 and 100/1=100 -> avg 55
        assert m.evaluate(split) == pytest.approx(55.0)

    def test_makespan_objective(self):
        m = small_model(objective="makespan")
        x = m.naive_solution()
        t = m.transfer_times(x)
        assert m.evaluate(x) == pytest.approx(t.max())

    def test_naive_uses_fastest(self):
        m = small_model()
        x = m.naive_solution()
        order = np.argsort(m.bandwidths)[::-1]
        assert x[order[0], 0] == 1 and x[order[1], 0] == 1

    def test_random_feasible(self):
        m = small_model()
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert m.feasible(m.random_solution(rng))

    def test_repair(self):
        m = small_model()
        rng = np.random.default_rng(1)
        x = np.zeros((6, 2), dtype=np.int8)
        fixed = m.repair(x, rng)
        assert m.feasible(fixed)

    def test_repair_removes_unavailable(self):
        avail = np.ones(6, dtype=bool)
        avail[2] = False
        m = small_model(available=avail)
        x = np.ones((6, 2), dtype=np.int8)
        fixed = m.repair(x, np.random.default_rng(0))
        assert m.feasible(fixed)
        assert not fixed[2].any()

    def test_local_search_never_worsens(self):
        m = small_model()
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = m.random_solution(rng)
            improved = m.local_search(x)
            assert m.evaluate(improved) <= m.evaluate(x) + 1e-12


class TestOracle:
    def test_space_size(self):
        m = small_model()
        # C(6,2) * C(6,4) = 15 * 15
        assert solution_space_size(m) == 225

    def test_limit(self):
        m = small_model()
        with pytest.raises(ValueError):
            exhaustive_gathering(m, limit=10)

    def test_oracle_beats_or_ties_everything(self):
        m = small_model()
        _, best = exhaustive_gathering(m)
        rng = np.random.default_rng(3)
        for _ in range(30):
            assert best <= m.evaluate(m.random_solution(rng)) + 1e-12
        assert best <= m.evaluate(m.naive_solution()) + 1e-12


class TestACO:
    def test_finds_optimum_on_small_instance(self):
        m = small_model()
        _, opt = exhaustive_gathering(m)
        res = ACOSolver(seed=0).solve(m, max_iterations=60)
        assert res.value == pytest.approx(opt, rel=1e-9)

    def test_beats_naive_and_random(self):
        """The Fig. 4 ordering: Optimized <= Naive and <= mean(Random)."""
        rng = np.random.default_rng(7)
        m = small_model(seed=11)
        res = ACOSolver(seed=1).solve(m, max_iterations=50)
        naive_val = m.evaluate(m.naive_solution())
        rand_vals = [m.evaluate(m.random_solution(rng)) for _ in range(50)]
        assert res.value <= naive_val + 1e-9
        assert res.value <= np.mean(rand_vals)

    def test_warm_start(self):
        m = small_model()
        warm = m.naive_solution()
        res = ACOSolver(seed=2).solve(m, warm_start=warm, max_iterations=10)
        assert res.value <= m.evaluate(warm) + 1e-9

    def test_history_monotone(self):
        m = small_model()
        res = ACOSolver(seed=3).solve(m, max_iterations=30)
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))

    def test_time_budget_respected(self):
        m = small_model()
        res = ACOSolver(seed=4).solve(m, time_budget=0.2, max_iterations=10**6)
        assert res.elapsed < 2.0

    def test_solution_feasible(self):
        avail = np.ones(6, dtype=bool)
        avail[1] = False
        m = small_model(available=avail)
        res = ACOSolver(seed=5).solve(m, max_iterations=20)
        assert m.feasible(res.x)

    def test_deterministic_with_iteration_budget(self):
        m = small_model()
        r1 = ACOSolver(seed=9).solve(m, max_iterations=15)
        r2 = ACOSolver(seed=9).solve(m, max_iterations=15)
        assert r1.value == r2.value
        assert np.array_equal(r1.x, r2.x)
