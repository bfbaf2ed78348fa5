"""Fig. 5 — per-operation time during data preparation vs CPU cores.

For each object, RF+EC's preparation phase is broken into read,
refactor, FT-optimisation, EC-encode, write, and distribute; compute and
I/O operations are extrapolated to 32-1,024 Andes-like cores with the
calibrated scaling model (single-core rates measured on this machine —
see DESIGN.md for the substitution).  The figure's claims: refactoring
dominates at small core counts and is embarrassingly parallel, so its
share collapses as cores grow.
"""

import pytest

from harness import (
    N_SYSTEMS,
    bandwidths,
    object_profiles,
    print_table,
    scaling_model,
)
from repro.core import brute_force
from repro.transfer import phase_latency, refactored_distribution

CORE_COUNTS = [32, 64, 128, 256, 512, 1024]


def fig5_breakdown(profile, cores: int) -> dict[str, float]:
    model = scaling_model()
    bw = bandwidths(N_SYSTEMS)
    ms = profile.optimal_ms()
    sol = brute_force(profile.ft_problem())
    dist = phase_latency(
        refactored_distribution(profile.level_sizes, ms, N_SYSTEMS, bw), bw
    ).makespan
    return model.preparation_times(
        "RF+EC",
        cores=cores,
        original_bytes=profile.paper_bytes,
        refactored_bytes=profile.refactored_bytes,
        distribution_latency=dist,
        ft_optimize_time=sol.elapsed,
    )


def test_refactor_dominates_at_low_cores():
    prof = object_profiles()[0]
    ops = fig5_breakdown(prof, 64)
    compute_and_io = {k: v for k, v in ops.items() if k != "distribute"}
    assert max(compute_and_io, key=compute_and_io.get) == "refactor"
    assert ops["refactor"] > 0.5 * sum(compute_and_io.values())


def test_refactor_scales_down_with_cores():
    prof = object_profiles()[0]
    t = {c: fig5_breakdown(prof, c)["refactor"] for c in CORE_COUNTS}
    assert t[1024] < t[32] / 20  # embarrassingly parallel
    for a, b in zip(CORE_COUNTS, CORE_COUNTS[1:]):
        assert t[b] < t[a]


def test_other_ops_also_improve():
    prof = object_profiles()[0]
    for op in ("read", "write", "ec_encode"):
        t32 = fig5_breakdown(prof, 32)[op]
        t1024 = fig5_breakdown(prof, 1024)[op]
        assert t1024 <= t32


def test_distribution_constant_across_cores():
    prof = object_profiles()[0]
    assert fig5_breakdown(prof, 32)["distribute"] == pytest.approx(
        fig5_breakdown(prof, 1024)["distribute"]
    )


def test_bench_breakdown(benchmark):
    prof = object_profiles()[0]
    out = benchmark(fig5_breakdown, prof, 256)
    assert out["refactor"] > 0


if __name__ == "__main__":
    for prof in object_profiles():
        rows = []
        for cores in CORE_COUNTS:
            ops = fig5_breakdown(prof, cores)
            rows.append(
                [cores] + [f"{ops[k]:.1f}" for k in
                           ("read", "refactor", "ft_optimize", "ec_encode",
                            "write", "distribute")]
            )
        print_table(
            f"Fig. 5: preparation breakdown — {prof.name} (seconds)",
            ["cores", "read", "refactor", "ft_opt", "ec_enc", "write", "distr"],
            rows,
        )
