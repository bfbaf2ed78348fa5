"""Fig. 6 — per-operation time during data restoration vs CPU cores.

RF+EC's restoration phase: gathering optimisation (60 s charge),
gathering, read, EC-decode, and progressive reconstruction, extrapolated
to 32-1,024 cores.  Figure claims: reconstruction dominates at small
core counts and parallelises away as cores grow.
"""

import pytest

from harness import (
    N_SYSTEMS,
    bandwidths,
    object_profiles,
    print_table,
    scaling_model,
)
from repro.core import exact_strategy, gathering_latency

CORE_COUNTS = [32, 64, 128, 256, 512, 1024]
SOLVER_CHARGE = 60.0


def _gather_latency(profile) -> float:
    """The makespan-optimal plan's gathering latency; the solver time
    is charged separately (``SOLVER_CHARGE``, the paper's 60 s)."""
    bw = bandwidths(N_SYSTEMS)
    ms = profile.optimal_ms()
    outcome = exact_strategy(
        profile.level_sizes, ms, bw, [], objective="makespan"
    )
    return gathering_latency(outcome, profile.level_sizes, ms, bw)


def fig6_breakdown(profile, cores: int) -> dict[str, float]:
    model = scaling_model()
    gather = _gather_latency(profile)
    gathered_bytes = profile.refactored_bytes  # k fragments per level = s_j
    return model.restoration_times(
        "RF+EC",
        cores=cores,
        original_bytes=profile.paper_bytes,
        gathered_bytes=gathered_bytes,
        gathering_latency=gather,
        gather_optimize_time=SOLVER_CHARGE,
    )


def test_reconstruct_dominates_compute_at_low_cores():
    prof = object_profiles()[0]
    ops = fig6_breakdown(prof, 64)
    compute = {k: ops[k] for k in ("read", "ec_decode", "reconstruct")}
    assert max(compute, key=compute.get) == "reconstruct"


def test_reconstruct_scales_with_cores():
    prof = object_profiles()[0]
    t = {c: fig6_breakdown(prof, c)["reconstruct"] for c in CORE_COUNTS}
    assert t[1024] < t[32] / 20
    for a, b in zip(CORE_COUNTS, CORE_COUNTS[1:]):
        assert t[b] < t[a]


def test_gather_and_solver_constant(benchmark=None):
    prof = object_profiles()[0]
    a = fig6_breakdown(prof, 32)
    b = fig6_breakdown(prof, 1024)
    assert a["gather"] == pytest.approx(b["gather"])
    assert a["gather_optimize"] == SOLVER_CHARGE


def test_bench_breakdown(benchmark):
    prof = object_profiles()[-1]
    out = benchmark(fig6_breakdown, prof, 256)
    assert out["reconstruct"] > 0


if __name__ == "__main__":
    for prof in object_profiles():
        rows = []
        for cores in CORE_COUNTS:
            ops = fig6_breakdown(prof, cores)
            rows.append(
                [cores] + [f"{ops[k]:.1f}" for k in
                           ("gather_optimize", "gather", "read", "ec_decode",
                            "reconstruct")]
            )
        print_table(
            f"Fig. 6: restoration breakdown — {prof.name} (seconds)",
            ["cores", "gath_opt", "gather", "read", "ec_dec", "reconstruct"],
            rows,
        )
