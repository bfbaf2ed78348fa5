"""Fig. 2 — expected relative L-infinity error vs storage overhead.

Applies DP (2 replicas), plain EC (3 parity) and RF+EC (m = [4, 3, 2, 1],
e = [4e-3, 5e-4, 6e-5, 1e-7]) to NYX:temperature on n = 16 systems at
p = 0.01, exactly the configuration in the figure, and checks the
paper's two claims: RF+EC reaches a *better* expected error at *much*
lower storage overhead (headline: up to 7.5x less storage than EC).
"""


from harness import N_SYSTEMS, P_FAIL, object_profiles, print_table
from repro.core import (
    duplication_storage_overhead,
    duplication_unavailability,
    ec_storage_overhead,
    ec_unavailability,
    expected_relative_error,
    refactored_storage_overhead,
)

#: The figure's stated per-level errors and FT configuration.
FIG2_ERRORS = [0.004, 0.0005, 0.00006, 0.0000001]
FIG2_MS = [4, 3, 2, 1]


def nyx_profile():
    return next(p for p in object_profiles() if p.name == "NYX:temperature")


def fig2_points():
    """(method, expected error, storage overhead) for every curve point."""
    prof = nyx_profile()
    pts = []
    for m in (2, 3):
        pts.append(
            (f"DP({m} replicas)",
             duplication_unavailability(N_SYSTEMS, m, P_FAIL),
             duplication_storage_overhead(m))
        )
    for m in (1, 2, 3, 4):
        pts.append(
            (f"EC({N_SYSTEMS - m}+{m})",
             ec_unavailability(N_SYSTEMS, m, P_FAIL),
             ec_storage_overhead(N_SYSTEMS - m, m))
        )
    rf_err = expected_relative_error(N_SYSTEMS, P_FAIL, FIG2_MS, FIG2_ERRORS)
    rf_ovh = refactored_storage_overhead(
        prof.level_sizes, FIG2_MS, N_SYSTEMS, prof.paper_bytes
    )
    pts.append(("RF+EC[4,3,2,1]", rf_err, rf_ovh))
    return pts


def test_rfec_beats_dp2_and_ec3():
    pts = {name: (err, ovh) for name, err, ovh in fig2_points()}
    rf_err, rf_ovh = pts["RF+EC[4,3,2,1]"]
    dp_err, dp_ovh = pts["DP(2 replicas)"]
    ec_err, ec_ovh = pts["EC(13+3)"]
    assert rf_err < dp_err
    assert rf_err < ec_err
    assert rf_ovh < dp_ovh
    assert rf_ovh < ec_ovh


def test_storage_reduction_factor():
    """Headline claim: up to 7.5x storage-overhead reduction vs EC at the
    same (or better) availability."""
    pts = {name: (err, ovh) for name, err, ovh in fig2_points()}
    rf_err, rf_ovh = pts["RF+EC[4,3,2,1]"]
    ec_err, ec_ovh = pts["EC(13+3)"]
    assert rf_err <= ec_err
    assert ec_ovh / rf_ovh > 3.0, f"only {ec_ovh / rf_ovh:.1f}x"


def test_rfec_error_dominated_by_availability_tail():
    """With p = 0.01 the expected error is dominated by the
    all-levels-lost tail plus the e1 band, both tiny."""
    rf_err = expected_relative_error(N_SYSTEMS, P_FAIL, FIG2_MS, FIG2_ERRORS)
    assert rf_err < 1e-5


def test_bench_expected_error_eval(benchmark):
    val = benchmark(
        expected_relative_error, N_SYSTEMS, P_FAIL, FIG2_MS, FIG2_ERRORS
    )
    assert 0 < val < 1


if __name__ == "__main__":
    rows = [
        [name, f"{err:.3e}", f"{ovh:.4f}"] for name, err, ovh in fig2_points()
    ]
    print_table(
        "Fig. 2: data quality vs storage overhead (NYX:temperature, n=16, p=0.01)",
        ["Method", "Expected rel. L-inf error", "Storage overhead"],
        rows,
    )
