"""Validation bench — Monte Carlo vs the analytic availability model.

Not a paper table: an independent empirical check that every closed form
the paper's optimisation rests on (Eqs. 1, 2, 4, 5) is implemented
correctly, plus a quantified look at the i.i.d. assumption's failure
mode under correlated outages.
"""

import pytest

from harness import N_SYSTEMS, object_profiles, print_table
from repro.core import brute_force
from repro.sim import simulate_expected_error, simulate_unavailability
from repro.storage import CorrelatedFailureModel

#: Use an elevated p so the Monte Carlo sees every band with 2e5 trials.
P_MC = 0.1
TRIALS = 200_000


def validation_rows():
    rows = []
    for prof in object_profiles()[:3]:
        ms = brute_force(prof.ft_problem()).ms
        res = simulate_expected_error(
            N_SYSTEMS, P_MC, ms, list(prof.errors), trials=TRIALS, seed=17
        )
        rows.append((prof.name, ms, res))
    return rows


def test_expected_error_validates():
    for name, ms, res in validation_rows():
        assert abs(res.z_score) < 4.5, (name, res)


def test_unavailability_validates():
    for tol in (1, 2, 4):
        res = simulate_unavailability(N_SYSTEMS, P_MC, tol, trials=TRIALS, seed=5)
        assert abs(res.z_score) < 4.5, (tol, res)


def test_correlated_outages_quantified():
    corr = CorrelatedFailureModel(
        regions=[list(range(0, 8)), list(range(8, 16))],
        p_region=0.05,
        p_single=P_MC / 2,
        seed=0,
    )
    prof = object_profiles()[0]
    ms = brute_force(prof.ft_problem()).ms
    res = simulate_expected_error(
        N_SYSTEMS, P_MC, ms, list(prof.errors), trials=50_000, seed=3,
        correlated=corr,
    )
    # the i.i.d. analytic value understates the correlated-world error
    assert res.empirical > res.analytic


def test_bench_monte_carlo(benchmark):
    prof = object_profiles()[0]
    ms = brute_force(prof.ft_problem()).ms

    def run():
        return simulate_expected_error(
            N_SYSTEMS, P_MC, ms, list(prof.errors), trials=50_000, seed=1
        )

    res = benchmark(run)
    assert res.trials == 50_000


if __name__ == "__main__":
    rows = [
        [name, str(ms), f"{r.analytic:.4e}", f"{r.empirical:.4e}",
         f"{r.std_error:.1e}", f"{r.z_score:+.2f}"]
        for name, ms, r in validation_rows()
    ]
    print_table(
        f"Validation: Eq. 5 vs Monte Carlo (p={P_MC}, {TRIALS} trials)",
        ["Object", "m_j", "analytic", "empirical", "std err", "z"],
        rows,
    )
