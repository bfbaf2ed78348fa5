"""Ablation — the Eq. 9 initialiser of the FT-configuration heuristic.

Starting the heuristic from the maximal minimal-overhead ladder (Eq. 9)
rather than the all-ones ladder prunes every candidate with m_l < m*.
This bench measures how much work the initialiser saves and verifies it
never changes the answer.
"""

import pytest

from harness import object_profiles, print_table
from repro.core import heuristic, initial_configuration


def _problem(prof, omega=0.35):
    return prof.ft_problem(omega=omega)


def solve_both(prof, omega=0.35):
    problem = _problem(prof, omega)
    smart = heuristic(problem)
    l = problem.l
    naive_start = [l - j for j in range(l)]  # the m*=1 ladder
    naive = heuristic(problem, initial=naive_start)
    return smart, naive


def test_same_answer_with_and_without_initializer():
    for prof in object_profiles():
        smart, naive = solve_both(prof)
        assert smart.ms == naive.ms, prof.name
        assert smart.expected_error == pytest.approx(naive.expected_error)


def test_initializer_reduces_work():
    saved = []
    for prof in object_profiles():
        smart, naive = solve_both(prof)
        saved.append(naive.evaluations - smart.evaluations)
    assert sum(saved) > 0


def test_initializer_is_maximal():
    for prof in object_profiles():
        problem = _problem(prof)
        ladder = initial_configuration(problem)
        bumped = [m + 1 for m in ladder]
        if bumped[0] < problem.n:
            assert problem.overhead(bumped) > problem.omega


def test_bench_heuristic_with_initializer(benchmark):
    problem = _problem(object_profiles()[0])
    benchmark(heuristic, problem)


def test_bench_heuristic_without_initializer(benchmark):
    problem = _problem(object_profiles()[0])
    start = [problem.l - j for j in range(problem.l)]
    benchmark(lambda: heuristic(problem, initial=start))


if __name__ == "__main__":
    rows = []
    for prof in object_profiles():
        smart, naive = solve_both(prof)
        rows.append([
            prof.name, str(smart.ms),
            smart.evaluations, naive.evaluations,
            f"{naive.evaluations / smart.evaluations:.1f}x",
        ])
    print_table(
        "Ablation: Eq. 9 initialiser (omega = 0.35)",
        ["Object", "optimum", "evals (Eq.9)", "evals (m*=1)", "work saved"],
        rows,
    )
