"""Related-work bench — RAPIDS vs demand-aware tiering (Zebra-like, §6).

The paper argues that demand-aware schemes (CoREC, Zebra) need access
predictions that are hard to make and drift over time, and that they
ignore the data's information content.  This bench quantifies both
points on an archive of equal-size objects at a shared overhead budget:

* *oracle demand*: tiering concentrates parity on hot objects and
  achieves a low demand-weighted error — the regime those systems are
  designed for;
* *drifted demand* (the access ranking inverts): the same assignment's
  weighted error collapses, while RAPIDS's per-level protection — which
  never consulted demand — delivers the same expected error to every
  request before and after the drift.
"""


from harness import N_SYSTEMS, P_FAIL, object_profiles, print_table
from repro.core import brute_force
from repro.core.related import DemandAwareTiering

OMEGA = 0.25
DEMANDS = [64.0, 16.0, 4.0, 2.0, 1.0, 1.0]  # hot -> cold
#: Equal-size objects isolate the demand effect for the tiering scheme
#: (with heterogeneous sizes the budget, not the demand, dictates who
#: can afford parity — the drift experiment needs the classic setting).
EQUAL_SIZE = 8 * 1024**4


def rapids_weighted_error(demands) -> float:
    """Demand-weighted expected error of per-object RAPIDS protection.

    Every object gets its own Eq. 5-optimal configuration at the shared
    budget; the result is demand-independent by construction, so the
    weighting is a formality."""
    profiles = object_profiles()
    errors = []
    for prof in profiles:
        sol = brute_force(prof.ft_problem(omega=OMEGA))
        errors.append(sol.expected_error)
    total = sum(demands)
    return sum(d * e for d, e in zip(demands, errors)) / total


def zebra_assignment():
    sizes = [EQUAL_SIZE] * len(DEMANDS)
    return DemandAwareTiering(N_SYSTEMS, P_FAIL).assign(sizes, DEMANDS, OMEGA)


def test_budgets_match():
    ta = zebra_assignment()
    assert ta.storage_overhead() <= OMEGA + 1e-9


def test_drift_hurts_tiering_not_rapids():
    ta = zebra_assignment()
    zebra_oracle = ta.weighted_expected_error(P_FAIL)
    zebra_drift = ta.weighted_expected_error(P_FAIL, demands=DEMANDS[::-1])
    # drift degrades the tiering baseline materially...
    assert zebra_drift > zebra_oracle * 2
    # ...while every RAPIDS object keeps its exact protection: the
    # per-object expected errors never consulted demand, so each request
    # sees the same quality before and after the drift, and the weighted
    # average stays below the tiering baseline in both regimes.
    assert rapids_weighted_error(DEMANDS) < zebra_oracle
    assert rapids_weighted_error(DEMANDS[::-1]) < zebra_drift


def test_rapids_beats_tiering_even_with_oracle_demand():
    """Because RAPIDS also exploits the information content (levels), it
    reaches a lower weighted error than all-or-nothing tiering at the
    same budget even when tiering's demand estimates are perfect."""
    ta = zebra_assignment()
    assert rapids_weighted_error(DEMANDS) < ta.weighted_expected_error(P_FAIL)


def test_hot_objects_protected_more():
    ta = zebra_assignment()
    assert ta.ms[0] >= ta.ms[-1]
    assert ta.ms[0] > min(ta.ms)


def test_bench_tier_assignment(benchmark):
    sizes = [EQUAL_SIZE] * len(DEMANDS)
    scheme = DemandAwareTiering(N_SYSTEMS, P_FAIL)
    ta = benchmark(scheme.assign, sizes, DEMANDS, OMEGA)
    assert len(ta.ms) == 6


if __name__ == "__main__":
    ta = zebra_assignment()
    rows = [
        ["Zebra-like (oracle demand)", str(list(ta.ms)),
         f"{ta.weighted_expected_error(P_FAIL):.3e}"],
        ["Zebra-like (drifted demand)", str(list(ta.ms)),
         f"{ta.weighted_expected_error(P_FAIL, demands=DEMANDS[::-1]):.3e}"],
        ["RAPIDS (any demand)", "per-level",
         f"{rapids_weighted_error(DEMANDS):.3e}"],
    ]
    print_table(
        f"Related work: demand-aware tiering vs RAPIDS (omega = {OMEGA})",
        ["Scheme", "parity", "demand-weighted E[err]"],
        rows,
    )
