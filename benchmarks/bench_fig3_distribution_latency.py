"""Fig. 3 — latency of distributing data and parity fragments to the 15
remote storage systems, for all six objects under DP / EC / RF+EC.

DP ships one extra full replica to the fastest remote endpoint; EC ships
(12+4)-code fragments, one per system; RF+EC ships each refactored
level's fragments under the m = [4, 3, 2, 1] configuration of Fig. 2.
Latency is the slowest transfer under the §3.3 equal-share model,
computed at the paper's true byte sizes (2.98-16.82 TB per object).
"""


from harness import bandwidths, object_profiles, print_table
from repro.transfer import (
    duplication_distribution,
    ec_distribution,
    phase_latency,
    refactored_distribution,
)

#: Fragments go to the 15 *remote* systems (the 16th is the local site).
N_REMOTE = 15
FIG3_MS = [4, 3, 2, 1]


def fig3_latencies():
    bw = bandwidths(N_REMOTE)
    rows = {}
    for prof in object_profiles():
        S = prof.paper_bytes
        dp = phase_latency(duplication_distribution(S, 1, bw), bw).makespan
        ec = phase_latency(ec_distribution(S, 11, 4, bw), bw).makespan
        rf = phase_latency(
            refactored_distribution(prof.level_sizes, FIG3_MS, N_REMOTE, bw), bw
        ).makespan
        rows[prof.name] = (dp, ec, rf)
    return rows


def test_method_ordering_every_object():
    """The figure's shape: DP slowest, EC in the middle, RF+EC fastest."""
    for name, (dp, ec, rf) in fig3_latencies().items():
        assert rf < ec < dp, (name, dp, ec, rf)


def test_network_overhead_reduction():
    """Headline claim: RF+EC cuts network overhead (transfer time) by up
    to ~3x vs plain EC."""
    ratios = [ec / rf for dp, ec, rf in fig3_latencies().values()]
    assert max(ratios) > 2.0, ratios


def test_larger_objects_take_longer():
    rows = fig3_latencies()
    assert rows["NYX:temperature"][1] > rows["hurricane:Pf48.bin"][1]


def test_bench_distribution_model(benchmark):
    bw = bandwidths(N_REMOTE)
    prof = object_profiles()[0]
    reqs = refactored_distribution(prof.level_sizes, FIG3_MS, N_REMOTE, bw)

    def run():
        return phase_latency(reqs, bw).makespan

    assert benchmark(run) > 0


if __name__ == "__main__":
    rows = [
        [name, f"{dp:.0f}s", f"{ec:.0f}s", f"{rf:.0f}s", f"{ec / rf:.2f}x"]
        for name, (dp, ec, rf) in fig3_latencies().items()
    ]
    print_table(
        "Fig. 3: distribution latency to 15 remote systems",
        ["Object", "DP(2 replicas)", "EC(11+4)", "RF+EC", "EC/RF+EC"],
        rows,
    )
