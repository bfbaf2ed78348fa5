"""Error-controlled progressive analysis: fetch only what the task needs.

A visualization pass can tolerate percent-level error; a derived-
quantity computation needs much tighter accuracy.  With RAPIDS, both
read the *same* stored object but gather different prefixes of its
hierarchy — the error-controlled retrieval pMGARD enables (§2.2).

This example:

1. refactors a cosmology field and prints its retrieval frontier
   (bytes vs error);
2. answers "how many bytes does a 1% analysis need?" vs full accuracy;
3. runs both restores through the pipeline with ``target_error`` and
   compares gathered bytes and simulated WAN latency.

Run:  python examples/progressive_analysis.py
"""

import tempfile

from repro import RAPIDS, MetadataCatalog, StorageCluster, relative_linf_error
from repro.datasets import nyx_velocity
from repro.refactor import Refactorer, RetrievalPlan
from repro.transfer import paper_bandwidth_profile


def main() -> None:
    data = nyx_velocity((49, 49, 49))
    refactorer = Refactorer(4, num_planes=24)
    obj = refactorer.refactor(data)

    plan = RetrievalPlan.for_object(obj)
    print("retrieval frontier (cumulative bytes -> rel. L-inf error):")
    for nbytes, err in plan.points:
        print(f"  {nbytes:>8d} B   {err:.3e}")

    for target in (1e-1, 1e-2, 1e-3):
        try:
            j = plan.components_needed(target)
        except ValueError:
            print(f"target {target:.0e}: unreachable at this plane budget")
            continue
        saved = plan.savings_vs_full(target)
        print(
            f"target {target:.0e}: {j} component(s), "
            f"{plan.budget_for_error(target)} B "
            f"({saved:.0%} of retrieval bytes saved)"
        )

    # End to end through the pipeline.
    cluster = StorageCluster(paper_bandwidth_profile(16))
    with tempfile.TemporaryDirectory() as tmp:
        with MetadataCatalog(f"{tmp}/meta") as catalog:
            rapids = RAPIDS(cluster, catalog, refactorer=refactorer, omega=0.3)
            prep = rapids.prepare("nyx:velocity_x", data)

            quick = rapids.restore(
                "nyx:velocity_x", strategy="naive", target_error=1e-1
            )
            full = rapids.restore("nyx:velocity_x", strategy="naive")
            err_quick = relative_linf_error(data, quick.data)
            err_full = relative_linf_error(data, full.data)
            print(
                f"\nquick-look restore: {quick.levels_used}/4 levels, "
                f"error {err_quick:.2e}, "
                f"simulated gather {quick.gathering_latency * 1e3:.2f} ms"
            )
            print(
                f"full restore:       {full.levels_used}/4 levels, "
                f"error {err_full:.2e}, "
                f"simulated gather {full.gathering_latency * 1e3:.2f} ms"
            )
            speedup = full.gathering_latency / max(quick.gathering_latency, 1e-12)
            print(f"quick-look gathers {speedup:.0f}x faster")


if __name__ == "__main__":
    main()
