"""Error-controlled progressive analysis: fetch only what the task needs.

A visualization pass can tolerate percent-level error; a derived-
quantity computation needs much tighter accuracy.  With RAPIDS, both
read the *same* stored object but gather different prefixes of its
hierarchy — the error-controlled retrieval pMGARD enables (§2.2).

This example:

1. refactors a cosmology field and prints its retrieval frontier
   (bytes vs error);
2. answers "how many bytes does a 1% analysis need?" vs full accuracy;
3. stores it and refines one restore level by level
   (``restore_progressive``, the Fig. 1(b) loop): each step reads one
   more level, and its error and simulated WAN latency are printed.

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
        nbytes = plan.budget_for_error(target)
        print(
            f"target {target:.0e}: {j} component(s), {nbytes} B "
            f"({1 - nbytes / plan.total_bytes:.0%} of retrieval bytes saved)"
        )

    # End to end through the pipeline.
    cluster = StorageCluster(paper_bandwidth_profile(16))
    with tempfile.TemporaryDirectory() as tmp:
        with MetadataCatalog(f"{tmp}/meta") as catalog:
            rapids = RAPIDS(cluster, catalog, refactorer=refactorer, omega=0.3)
            rapids.prepare("nyx:velocity_x", data)

            print("\nprogressive restore (each step gathers one more level):")
            for step in rapids.restore_progressive("nyx:velocity_x"):
                print(
                    f"  {step.levels_used}/4 levels: "
                    f"error {relative_linf_error(data, step.data):.2e}, "
                    f"simulated gather {step.gathering_latency * 1e6:.1f} us"
                )


if __name__ == "__main__":
    main()
