"""Fig. 4 — latency of gathering fragments with different strategies.

For every object (paper-scale sizes, Table 3 optimal FT configurations,
16 remote systems): Random (50 seeds, mean +/- std), Naive (fastest
systems first), and Optimized (ACO with the Naive warm start).  As in
the paper, the Optimized strategy's latency *includes* the solver's
60-second budget; we run the solver for a fixed number of iterations
(no wall clock, so every run prints the same table) and charge the
nominal 60 s (its solutions converge in well under a second at this
problem size).
"""

import numpy as np

from harness import N_SYSTEMS, bandwidths, object_profiles, print_table
from repro.core import (
    gathering_latency,
    naive_strategy,
    optimized_strategy,
    random_strategy,
)

#: The paper charges MIDACO's full budget to the gathering latency.
CHARGED_SOLVER_TIME = 60.0
RANDOM_SEEDS = 50
#: ACO iterations per object: what a 0.5 s budget bought at ~40 it/s
#: on a 2-vCPU Xeon.
ACO_ITERATIONS = 20


def fig4_latencies(charge_solver: bool = True):
    bw = bandwidths(N_SYSTEMS)
    out = {}
    for prof in object_profiles():
        sizes = prof.level_sizes
        ms = prof.optimal_ms()
        rand = [
            gathering_latency(
                random_strategy(sizes, ms, bw, seed=s), sizes, ms, bw
            )
            for s in range(RANDOM_SEEDS)
        ]
        naive = gathering_latency(naive_strategy(sizes, ms, bw), sizes, ms, bw)
        opt = optimized_strategy(
            sizes, ms, bw,
            time_budget=float("inf"),
            max_iterations=ACO_ITERATIONS,
            charged_time=CHARGED_SOLVER_TIME if charge_solver else 0.0,
            seed=0,
            objective="makespan",
        )
        out[prof.name] = {
            "random_mean": float(np.mean(rand)),
            "random_std": float(np.std(rand)),
            "naive": naive,
            "optimized": gathering_latency(opt, sizes, ms, bw),
        }
    return out


def test_optimized_beats_naive_and_random_on_large_objects():
    """The Fig. 4 shape for the big objects (where the 60 s solver charge
    is amortised): Optimized < Naive < mean(Random)."""
    for name, row in fig4_latencies().items():
        if "hurricane" in name:
            continue  # small objects: the 60 s charge dominates (paper §5.4)
        assert row["optimized"] < row["naive"], (name, row)
        assert row["optimized"] < row["random_mean"], (name, row)


def test_fixed_work_prints_the_same_table():
    assert fig4_latencies() == fig4_latencies()


def test_naive_beats_random_everywhere():
    for name, row in fig4_latencies().items():
        assert row["naive"] < row["random_mean"], (name, row)


def test_improvement_factors():
    """Up to 2x vs Random and 1.5x vs Naive (paper's reported gains)."""
    rows = fig4_latencies()
    best_vs_random = max(r["random_mean"] / r["optimized"] for r in rows.values())
    best_vs_naive = max(r["naive"] / r["optimized"] for r in rows.values())
    assert best_vs_random > 1.4
    assert best_vs_naive > 1.2


def test_small_objects_hurt_by_solver_charge():
    """hurricane:Pf48.bin gains little/negative (paper: the 60 s
    optimisation time eats the benefit on small objects)."""
    rows = fig4_latencies()
    hur = rows["hurricane:Pf48.bin"]
    rows_nocharge = fig4_latencies(charge_solver=False)
    # without the charge the optimiser would win even here
    assert rows_nocharge["hurricane:Pf48.bin"]["optimized"] <= hur["naive"]


def test_bench_optimized_strategy(benchmark):
    prof = object_profiles()[0]
    bw = bandwidths(N_SYSTEMS)
    ms = prof.optimal_ms()

    def run():
        return optimized_strategy(
            prof.level_sizes, ms, bw, time_budget=0.05, charged_time=0.0,
            max_iterations=30, seed=0,
        )

    out = benchmark(run)
    assert out.x.sum() > 0


if __name__ == "__main__":
    rows = []
    for name, r in fig4_latencies().items():
        rows.append([
            name,
            f"{r['random_mean']:.0f}s ± {r['random_std']:.0f}",
            f"{r['naive']:.0f}s",
            f"{r['optimized']:.0f}s",
            f"{r['random_mean'] / r['optimized']:.2f}x / {r['naive'] / r['optimized']:.2f}x",
        ])
    print_table(
        "Fig. 4: gathering latency by strategy (60 s solver budget charged)",
        ["Object", "Random(50)", "Naive", "Optimized", "gain vs Rand/Naive"],
        rows,
    )
