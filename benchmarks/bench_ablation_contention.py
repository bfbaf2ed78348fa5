"""Ablation — the bandwidth-contention model and transfer batching.

Two modelling choices behind Figs. 3/4:

1. *Static equal share* (the paper's model: every request to endpoint i
   gets B_i / c_i for its whole life) vs the exact *fair-share* event
   simulation (shares are re-divided as transfers finish).  Static is a
   per-request upper bound; this bench measures how conservative it is.
2. *Per-destination batching* of distribution transfers (one Globus task
   per endpoint) vs per-fragment requests, which self-contend.
"""

import numpy as np

from harness import N_SYSTEMS, bandwidths, object_profiles, print_table
from repro.transfer import (
    FairShareSimulator,
    phase_latency,
    refactored_distribution,
    static_transfer_times,
)

MS = [9, 8, 7, 4]


def _requests(aggregate: bool):
    prof = object_profiles()[0]
    return refactored_distribution(
        prof.level_sizes, MS, N_SYSTEMS, bandwidths(N_SYSTEMS),
        aggregate=aggregate,
    )


def test_static_upper_bounds_fair_share():
    bw = bandwidths(N_SYSTEMS)
    reqs = _requests(aggregate=False)
    stat = static_transfer_times(reqs, bw)
    fair = FairShareSimulator(bw).run(reqs)
    for s, f in zip(stat.finish_times, fair.finish_times):
        assert f <= s + 1e-6
    assert fair.makespan <= stat.makespan + 1e-6


def test_models_agree_without_contention():
    bw = bandwidths(N_SYSTEMS)
    reqs = _requests(aggregate=True)  # one request per endpoint
    stat = phase_latency(reqs, bw, model="static")
    fair = phase_latency(reqs, bw, model="fair-share")
    np.testing.assert_allclose(stat.finish_times, fair.finish_times)


def test_batching_reduces_distribution_latency():
    """Per-fragment requests self-contend at every endpoint; bundling
    them removes that penalty entirely."""
    bw = bandwidths(N_SYSTEMS)
    bundled = phase_latency(_requests(True), bw).makespan
    separate = phase_latency(_requests(False), bw).makespan
    assert bundled < separate
    assert separate / bundled > 1.5  # 4 levels -> up to 4x static penalty


def test_static_gap_bounded():
    """The static model's conservatism stays within the contention factor."""
    bw = bandwidths(N_SYSTEMS)
    reqs = _requests(aggregate=False)
    stat = static_transfer_times(reqs, bw).makespan
    fair = FairShareSimulator(bw).run(reqs).makespan
    assert stat / fair < len(MS) + 1e-9


def test_bench_static_model(benchmark):
    bw = bandwidths(N_SYSTEMS)
    reqs = _requests(aggregate=False)
    benchmark(static_transfer_times, reqs, bw)


def test_bench_fair_share_simulation(benchmark):
    bw = bandwidths(N_SYSTEMS)
    reqs = _requests(aggregate=False)
    sim = FairShareSimulator(bw)
    benchmark(sim.run, reqs)


if __name__ == "__main__":
    bw = bandwidths(N_SYSTEMS)
    rows = []
    for agg in (True, False):
        reqs = _requests(agg)
        stat = phase_latency(reqs, bw, model="static").makespan
        fair = phase_latency(reqs, bw, model="fair-share").makespan
        rows.append([
            "bundled" if agg else "per-fragment",
            len(reqs), f"{stat:.0f}s", f"{fair:.0f}s", f"{stat / fair:.2f}x",
        ])
    print_table(
        "Ablation: contention model and batching (NYX:temperature, m=[9,8,7,4])",
        ["distribution", "#requests", "static", "fair-share", "static/fair"],
        rows,
    )
