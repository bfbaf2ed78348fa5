"""Table 4 — overall data-preparation performance: DP vs EC vs RF+EC.

The fairness setup of §5.5.1: DP keeps 3 replicas (2 extra copies) and
plain EC uses a (12, 4) code so that both reach expected errors
comparable to RF+EC's.  Times are end-to-end preparation (all operations
plus distribution) at 64/256/1024 cores through the calibrated scaling
model.  Shape claims: EC wins at 64 cores; RF+EC overtakes it by ~2x at
1,024 cores and beats DP by ~4x.
"""

import pytest

from harness import (
    N_SYSTEMS,
    bandwidths,
    object_profiles,
    print_table,
    scaling_model,
)
from repro.core import DuplicationMethod, PlainECMethod, brute_force
from repro.transfer import phase_latency, refactored_distribution

CORES = [64, 256, 1024]
DP_REPLICAS = 3
EC_K, EC_M = 12, 4


def table4_times():
    model = scaling_model()
    bw = bandwidths(N_SYSTEMS)
    dp = DuplicationMethod(DP_REPLICAS)
    ec = PlainECMethod(EC_K, EC_M)
    out = {}
    for prof in object_profiles():
        S = prof.paper_bytes
        ms = prof.optimal_ms()
        sol = brute_force(prof.ft_problem())
        dp_dist = dp.prepare(S, bw).distribution_latency
        ec_dist = ec.prepare(S, bw).distribution_latency
        rf_dist = phase_latency(
            refactored_distribution(prof.level_sizes, ms, N_SYSTEMS, bw), bw
        ).makespan
        row = {"DP": sum(
            model.preparation_times("DP", cores=1, original_bytes=S,
                                    distribution_latency=dp_dist).values()
        )}
        for cores in CORES:
            row[("EC", cores)] = sum(
                model.preparation_times(
                    "EC", cores=cores, original_bytes=S,
                    ec_stored_bytes=S * (EC_K + EC_M) / EC_K,
                    distribution_latency=ec_dist,
                ).values()
            )
            row[("RF+EC", cores)] = sum(
                model.preparation_times(
                    "RF+EC", cores=cores, original_bytes=S,
                    refactored_bytes=prof.refactored_bytes,
                    distribution_latency=rf_dist,
                    ft_optimize_time=sol.elapsed,
                ).values()
            )
        out[prof.name] = row
    return out


def test_ec_wins_at_64_cores():
    for name, row in table4_times().items():
        assert row[("EC", 64)] < row[("RF+EC", 64)], name


def test_rfec_wins_at_1024_cores():
    for name, row in table4_times().items():
        assert row[("RF+EC", 1024)] < row[("EC", 1024)], name
        assert row[("RF+EC", 1024)] < row["DP"], name


def test_rfec_speedup_factors_at_scale():
    """~2x vs EC and ~4x vs DP at 1,024 cores (paper's reported gains)."""
    rows = table4_times()
    vs_ec = [r[("EC", 1024)] / r[("RF+EC", 1024)] for r in rows.values()]
    vs_dp = [r["DP"] / r[("RF+EC", 1024)] for r in rows.values()]
    assert max(vs_ec) > 1.5
    assert max(vs_dp) > 3.0


def test_all_methods_improve_with_cores():
    for row in table4_times().values():
        for method in ("EC", "RF+EC"):
            assert row[(method, 1024)] < row[(method, 64)]


def test_bench_table4(benchmark):
    out = benchmark(table4_times)
    assert len(out) == 6


if __name__ == "__main__":
    rows = []
    for name, r in table4_times().items():
        rows.append(
            [name, f"{r['DP']:.0f}"]
            + [f"{r[(m, c)]:.0f}" for c in CORES for m in ("EC", "RF+EC")]
        )
    print_table(
        "Table 4: overall preparation time (seconds)",
        ["Object", "DP",
         "EC@64", "RF+EC@64", "EC@256", "RF+EC@256", "EC@1024", "RF+EC@1024"],
        rows,
    )
