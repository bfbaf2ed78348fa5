"""Ablation — gathering-solver components: full ACO vs pure local search
vs random restarts vs the exact optimum, and the average-time (Eq. 10)
vs makespan objective.

Quantifies (a) what the pheromone machinery adds over its ingredients,
(b) how far the paper's metaheuristic lands from the optimum the
restore path computes exactly, and (c) how well the paper's
average-transfer-time objective proxies the makespan that end-to-end
latency actually measures.
"""

import numpy as np

from harness import N_SYSTEMS, bandwidths, object_profiles, print_table
from repro.core.gathering import _build_model
from repro.optimize import ACOSolver, exact_gathering


def _model(objective="average", failed=(1, 12)):
    prof = object_profiles()[0]
    model, _ = _build_model(
        prof.level_sizes, prof.optimal_ms(), bandwidths(N_SYSTEMS),
        list(failed), objective=objective,
    )
    return model


def solve_variants(model, iters=40):
    rng = np.random.default_rng(0)
    out = {}
    res = ACOSolver(seed=0).solve(model, max_iterations=iters)
    out["aco"] = res.value
    res = ACOSolver(seed=0, local_search=False).solve(
        model, max_iterations=iters
    )
    out["aco_no_ls"] = res.value
    # pure local search from the naive start
    out["local_search"] = model.evaluate(
        model.local_search(model.naive_solution(), max_rounds=50)
    )
    # the optimum (the restore path's planner)
    out["exact"] = exact_gathering(model)[1]
    # random restarts with the same evaluation budget
    best = float("inf")
    for _ in range(iters * 16):
        best = min(best, model.evaluate(model.random_solution(rng)))
    out["random_restart"] = best
    return out


def test_aco_at_least_as_good_as_ingredients():
    """ACO clearly beats random restarts and its own no-local-search
    variant; against a *long* pure local search it lands within 2%
    (local search is a very strong baseline on the average objective —
    a finding this ablation exists to surface)."""
    model = _model()
    v = solve_variants(model)
    assert v["aco"] <= v["local_search"] * 1.02
    assert v["aco"] <= v["random_restart"] + 1e-9
    assert v["aco"] <= v["aco_no_ls"] + 1e-9


def test_metaheuristics_agree():
    """ACO lands within a few percent of the exact optimum on both
    objectives — the floor is the problem, not the algorithm."""
    for objective in ("average", "makespan"):
        v = solve_variants(_model(objective))
        assert v["exact"] <= min(v.values()) + 1e-9
        assert v["aco"] <= v["exact"] * 1.05


def test_average_objective_proxies_makespan():
    """Optimising Eq. 10's average still lands within 1.5x of the
    makespan-optimal selection's makespan."""
    avg_model = _model("average")
    mk_model = _model("makespan")
    x_avg = ACOSolver(seed=0).solve(avg_model, max_iterations=40).x
    x_mk = ACOSolver(seed=0).solve(mk_model, max_iterations=40).x
    mk_of_avg = mk_model.evaluate(x_avg)
    mk_best = mk_model.evaluate(x_mk)
    assert mk_of_avg <= mk_best * 1.5


def test_bench_aco(benchmark):
    model = _model()
    benchmark(lambda: ACOSolver(seed=0).solve(model, max_iterations=10))


def test_bench_local_search(benchmark):
    model = _model()
    benchmark(lambda: model.local_search(model.naive_solution(), max_rounds=20))


if __name__ == "__main__":
    for objective in ("average", "makespan"):
        model = _model(objective)
        v = solve_variants(model)
        rows = [[k, f"{val:.1f}s"] for k, val in sorted(v.items())]
        print_table(
            f"Ablation: solver variants ({objective} objective, 2 failures)",
            ["solver", "objective value"],
            rows,
        )
