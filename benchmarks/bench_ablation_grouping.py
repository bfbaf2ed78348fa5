"""Ablation — bitplane grouping policy: cross-level importance order
(pMGARD's reordering) vs naive per-decomposition-level grouping.

The paper's §2.2 argues that reordering bitplanes *across* levels by
their contribution to precision yields better progressive behaviour
than shipping decomposition levels whole.  This bench measures the
error-per-byte frontier of both policies.
"""


from harness import print_table
from repro.datasets import scale_temperature
from repro.refactor import Refactorer


def frontier(policy: str):
    """(cumulative bytes, error) after each component prefix."""
    field = scale_temperature((49, 49, 49))
    # per-level policy maps components 1:1 onto decomposition groups;
    # match the component count to the group count for a fair frontier.
    ncomp = 4 if policy == "importance" else 4
    r = Refactorer(ncomp, num_planes=22, policy=policy)
    obj = r.refactor(field)
    acc, pts = 0, []
    for s, e in zip(obj.sizes, obj.errors):
        acc += s
        pts.append((acc, e))
    return pts


def _error_at_budget(pts, budget):
    best = 1.0
    for nbytes, err in pts:
        if nbytes <= budget:
            best = err
    return best


def test_importance_dominates_per_level_frontier():
    """At equal byte budgets, the importance ordering reaches equal or
    lower error — the pMGARD reordering claim."""
    imp = frontier("importance")
    per = frontier("per-level")
    total = imp[-1][0]
    wins = ties = 0
    for frac in (0.05, 0.15, 0.4, 1.0):
        budget = total * frac
        e_imp = _error_at_budget(imp, budget)
        e_per = _error_at_budget(per, budget)
        if e_imp < e_per:
            wins += 1
        elif e_imp == e_per:
            ties += 1
    assert wins >= 2
    assert wins + ties >= 3


def test_both_policies_converge():
    assert frontier("importance")[-1][1] < 1e-4
    assert frontier("per-level")[-1][1] < 1e-4


def test_bench_importance_grouping(benchmark):
    field = scale_temperature((33, 33, 33))
    r = Refactorer(4, num_planes=22, policy="importance")
    benchmark(r.refactor, field, measure_errors=False)


def test_bench_per_level_grouping(benchmark):
    field = scale_temperature((33, 33, 33))
    r = Refactorer(4, num_planes=22, policy="per-level")
    benchmark(r.refactor, field, measure_errors=False)


if __name__ == "__main__":
    rows = []
    for policy in ("importance", "per-level"):
        for nbytes, err in frontier(policy):
            rows.append([policy, nbytes, f"{err:.3e}"])
    print_table(
        "Ablation: grouping policy error-per-byte frontier (SCALE:T proxy)",
        ["policy", "cumulative bytes", "rel. L-inf error"],
        rows,
    )
