"""The exact gathering planner: optimal, deterministic and clock-free."""

import itertools
import time

import numpy as np
import pytest

from repro.core import RAPIDS, gathering_latency
from repro.metadata import MetadataCatalog
from repro.optimize import (
    ACOSolver,
    GatheringModel,
    exact_gathering,
    exhaustive_gathering,
    solution_space_size,
)
from repro.optimize import exact
from repro.refactor import Refactorer
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

# A case whose ACO plan, at a 1 s budget, depends on the clock: with
# perf_counter jumping past the budget it stops at the Naive plan.
SIZES = [2e6, 8e6, 3e7, 1.2e8]
MS = [8, 5, 4, 2]
FAILED = [3, 7]


def _small_model(rng, objective):
    """A random model whose exactly-k_j space brute force can walk."""
    while True:
        n = int(rng.integers(3, 7))
        levels = int(rng.integers(1, 5))
        needed = np.sort(rng.integers(1, n, size=levels))[::-1]
        available = np.ones(n, dtype=bool)
        down = int(rng.integers(0, n - needed.max() + 1))
        available[rng.choice(n, size=down, replace=False)] = False
        model = GatheringModel(
            rng.uniform(1.0, 100.0, size=levels), needed,
            rng.uniform(0.5, 5.0, size=n), available, objective,
        )
        if solution_space_size(model) <= 20_000:
            return model


@pytest.mark.parametrize("objective", ["average", "makespan"])
def test_matches_exhaustive(objective):
    """50 seeded cases per objective: the DP's value is the optimum."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        model = _small_model(rng, objective)
        x, value = exact_gathering(model)
        assert model.feasible(x)
        assert value == model.evaluate(x)
        assert value == pytest.approx(exhaustive_gathering(model)[1], rel=1e-9)


def test_no_worse_than_aco_at_paper_scale():
    """30 seeded cases at n = 16, l = 4 with the paper's bandwidths: the
    DP's value is <= a warm-started ACO run's on every one.  It is
    strictly lower on 14 of them against 10 ACO iterations (on 10
    against 200 iterations, which is too slow to run here)."""
    rng = np.random.default_rng(0)
    bandwidths = paper_bandwidth_profile(16)
    wins = 0
    for _ in range(30):
        ms = np.sort(rng.choice(np.arange(1, 12), size=4, replace=False))[::-1]
        available = np.ones(16, dtype=bool)
        down = rng.choice(16, size=int(rng.integers(0, ms[-1] + 1)), replace=False)
        available[down] = False
        needed = 16 - ms
        model = GatheringModel(
            np.sort(10 ** rng.uniform(9, 12, size=4)) / needed, needed,
            bandwidths, available,
        )
        _, value = exact_gathering(model)
        aco = ACOSolver(seed=0).solve(
            model, warm_start=model.naive_solution(), max_iterations=10
        )
        assert value <= aco.value * (1 + 1e-12)
        wins += value < aco.value * (1 - 1e-12)
    assert wins >= 10


def test_ties_prefer_data_fragments():
    """Equal bandwidths: every choice ties, and both the plan and Naive
    read the lowest ids — the data fragments."""
    model = GatheringModel(
        np.array([10.0]), np.array([3]), np.ones(8), np.ones(8, dtype=bool)
    )
    x, _ = exact_gathering(model)
    assert np.nonzero(x[:, 0])[0].tolist() == [0, 1, 2]
    assert np.nonzero(model.naive_solution()[:, 0])[0].tolist() == [0, 1, 2]


def test_reads_no_clock(monkeypatch):
    def no_clock():
        raise AssertionError("the exact planner read the clock")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    model = GatheringModel(
        np.array([1.0, 4.0]), np.array([3, 2]), np.arange(1.0, 7.0),
        np.ones(6, dtype=bool),
    )
    assert model.feasible(exact_gathering(model)[0])


def test_fallback_above_state_cap_is_fixed_work(monkeypatch):
    """Above the state cap: a seeded ACO run of n * l iterations, the
    same plan on every call."""
    model = _small_model(np.random.default_rng(5), "average")
    monkeypatch.setattr(exact, "MAX_STATES", 1)
    x, value = exact_gathering(model)
    again = ACOSolver(seed=0).solve(
        model, warm_start=model.naive_solution(),
        max_iterations=model.n * model.levels,
    )
    assert np.array_equal(x, again.x) and value == again.value
    assert model.feasible(x)


def _jump_clock(monkeypatch):
    """perf_counter advancing 2 s per reading: any wall-clock budget
    shorter than that expires before the first iteration."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 2.0)


@pytest.mark.parametrize("strategy", ["optimized", "adaptive"])
def test_plan_is_clock_free(strategy, tmp_path, monkeypatch):
    with MetadataCatalog(tmp_path / "meta") as catalog:
        rapids = RAPIDS(StorageCluster(paper_bandwidth_profile(16)), catalog)
        real = rapids._select(strategy, SIZES, MS, FAILED)
        _jump_clock(monkeypatch)
        jumped = rapids._select(strategy, SIZES, MS, FAILED)
    assert np.array_equal(real.x, jumped.x)
    assert real.solver_time == jumped.solver_time == 0.0
    bw = paper_bandwidth_profile(16)
    assert (gathering_latency(real, SIZES, MS, bw)
            == gathering_latency(jumped, SIZES, MS, bw))


@pytest.mark.parametrize("strategy", ["optimized", "adaptive"])
def test_restore_is_clock_free(strategy, tmp_path, monkeypatch):
    """Two identical worlds, one restored under a jumping clock: the
    same fragments are read and ``gathering_latency`` is identical."""
    data = np.random.default_rng(0).standard_normal((17, 17, 17))
    worlds = []
    for name in ("real", "jumped"):
        catalog = MetadataCatalog(tmp_path / name)
        rapids = RAPIDS(StorageCluster(paper_bandwidth_profile(16)), catalog,
                        refactorer=Refactorer(4), omega=0.25)
        rapids.prepare("obj", data)
        rapids.cluster.fail(FAILED)
        worlds.append((rapids, catalog))

    def restore(rapids):
        homes = []
        rapids.fetch_observer = lambda home, out: homes.append(home)
        rep = rapids.restore("obj", strategy=strategy)
        return homes, rep

    try:
        homes_a, a = restore(worlds[0][0])
        _jump_clock(monkeypatch)
        homes_b, b = restore(worlds[1][0])
    finally:
        for _, catalog in worlds:
            catalog.close()
    assert homes_a == homes_b
    assert a.gathering_latency == b.gathering_latency
    assert a.levels_used == b.levels_used > 0
    np.testing.assert_array_equal(a.data, b.data)
