"""Extension bench — heterogeneous facility reliability.

The paper calibrates p = 0.01 from OLCF's Alpine (98.93% availability)
but also quotes ALCF's Theta Lustre at 94.8% — a 5x worse outage rate at
a facility one would plausibly include in a geo-distributed deployment.
This bench quantifies what the uniform-p assumption hides, and shows the
FT optimiser's configurations remain near-optimal when re-evaluated
under the true heterogeneous model (the bands are wide enough to absorb
facility differences at these scales).
"""

import numpy as np
import pytest

from harness import N_SYSTEMS, object_profiles, print_table
from repro.core import brute_force
from repro.core.heterogeneous import expected_relative_error_hetero

ALPINE_P = 0.0107
THETA_P = 0.052


def fleet(theta_count: int) -> np.ndarray:
    ps = np.full(N_SYSTEMS, ALPINE_P)
    ps[:theta_count] = THETA_P
    return ps


#: The lean Fig. 2 configuration vs the budgeted optimum.
LEAN_MS = [4, 3, 2, 1]


def rows(ms=None):
    prof = object_profiles()[0]
    ms = ms if ms is not None else brute_force(prof.ft_problem(omega=0.3)).ms
    out = []
    for theta_count in (0, 4, 8, 12, 16):
        ps = fleet(theta_count)
        assumed = expected_relative_error_hetero(
            np.full(N_SYSTEMS, ALPINE_P), ms, list(prof.errors)
        )
        actual = expected_relative_error_hetero(ps, ms, list(prof.errors))
        out.append((theta_count, ms, assumed, actual))
    return out


def test_lean_configs_sensitive_to_heterogeneity():
    """The minimal Fig. 2 configuration's expected error is badly
    underestimated by the uniform-Alpine assumption once Theta-grade
    facilities join the fleet."""
    data = rows(LEAN_MS)
    assert data[0][3] == pytest.approx(data[0][2], rel=1e-12)
    half = next(r for r in data if r[0] == 8)
    assert half[3] / half[2] > 10


def test_optimised_configs_absorb_heterogeneity():
    """A finding of this extension: the budgeted optimum carries enough
    parity depth that even a half-Theta fleet stays within ~1.5x of the
    uniform prediction — the optimiser's headroom doubles as robustness
    to facility heterogeneity."""
    data = rows()
    half = next(r for r in data if r[0] == 8)
    assert half[3] / half[2] < 2.0
    for theta_count, _, assumed, actual in data[1:]:
        assert actual > assumed, theta_count


def test_optimizer_under_true_model():
    """Re-optimising with a conservative uniform p equal to the fleet's
    *worst* facility gives a configuration whose true heterogeneous
    error is within 2x of the heterogeneous-exhaustive optimum."""
    prof = object_profiles()[0]
    ps = fleet(8)
    import itertools

    best_ms, best_val = None, float("inf")
    problem = prof.ft_problem(omega=0.3)
    for combo in itertools.combinations(range(N_SYSTEMS - 1, 0, -1), 4):
        msc = list(combo)
        if problem.overhead(msc) > 0.3:
            continue
        val = expected_relative_error_hetero(ps, msc, list(prof.errors))
        if val < best_val:
            best_ms, best_val = msc, val
    conservative = brute_force(
        prof.ft_problem(omega=0.3)
    )  # solved at p = 0.01 uniform
    cons_val = expected_relative_error_hetero(
        ps, conservative.ms, list(prof.errors)
    )
    assert cons_val <= best_val * 2.0, (conservative.ms, best_ms)


def test_bench_poisson_binomial(benchmark):
    from repro.core.heterogeneous import poisson_binomial_pmf

    ps = fleet(8)
    pmf = benchmark(poisson_binomial_pmf, ps)
    assert pmf.sum() == pytest.approx(1.0)


if __name__ == "__main__":
    for label, ms in (("lean m=[4,3,2,1]", LEAN_MS), ("optimised", None)):
        table = [
            [f"{t}/16 Theta-grade", str(m), f"{assumed:.3e}",
             f"{actual:.3e}", f"{actual / assumed:.1f}x"]
            for t, m, assumed, actual in rows(ms)
        ]
        print_table(
            f"Extension: heterogeneous facilities — {label} (NYX:temperature)",
            ["fleet", "m_j", "uniform-p prediction", "true E[err]", "off by"],
            table,
        )
