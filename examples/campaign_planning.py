"""Planning protection for a long-running campaign.

Works backwards from requirements, the way a facility operator would:

1. the FT optimiser picks the fault-tolerance configuration with the
   lowest expected error under a 16 % storage-overhead budget, and the
   probability that every level is lost (a blackout) is read off it;
2. that configuration is stress-tested with a Monte Carlo check of
   the analytic model and a year-long campaign simulation with
   persistent (Markov) outages;
3. a whole archive of snapshots is ingested under that configuration,
   two disks are lost, and one scrub-and-repair pass heals the archive.

Run:  python examples/campaign_planning.py
"""

import tempfile

from repro.core import RAPIDS, FTProblem, brute_force, prob_more_than_k_failures
from repro.datasets import get_object
from repro.healing import scrub_and_repair
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer
from repro.sim import CampaignConfig, run_campaign, simulate_expected_error
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

N, P, OMEGA = 16, 0.01, 0.16


def main() -> None:
    # --- profile the data, then configure ----------------------------------
    obj = get_object("SCALE:T")
    proxy = obj.proxy((49, 49, 49))
    refactored = Refactorer(4, num_planes=22).refactor(proxy)
    sizes = [s / proxy.nbytes * obj.paper_bytes for s in refactored.sizes]

    choice = brute_force(FTProblem(
        n=N, p=P, sizes=tuple(sizes), errors=tuple(refactored.errors),
        original_size=obj.paper_bytes, omega=OMEGA,
    ))
    blackout = prob_more_than_k_failures(N, choice.ms[0], P)
    print(
        f"configuration: m = {choice.ms} at overhead {choice.overhead:.3f} "
        f"(E[err] {choice.expected_error:.2e}, P[blackout] {blackout:.1e})"
    )

    # --- validate the analytic model behind the choice ---------------------
    mc = simulate_expected_error(
        N, 0.05, choice.ms, list(refactored.errors),
        trials=100_000, seed=1,
    )
    print(
        f"Monte Carlo check at p=0.05: analytic {mc.analytic:.3e}, "
        f"empirical {mc.empirical:.3e} (z = {mc.z_score:+.2f})"
    )

    # --- campaign simulation with persistent outages -------------------------
    cfg = CampaignConfig(
        n=N, p_fail=0.001, p_repair=0.099,  # steady state p = 0.01
        ms=tuple(choice.ms), errors=tuple(refactored.errors),
        epochs=50_000, requests_per_epoch=1,
    )
    stats = run_campaign(cfg, seed=2)
    print(
        f"50k-epoch campaign: availability {stats.availability:.6f}, "
        f"full accuracy {stats.full_accuracy_fraction:.4f}, "
        f"mean error {stats.mean_error:.2e}, "
        f"worst concurrent outages {stats.max_concurrent_failures}"
    )

    # --- operate an archive under the plan ------------------------------------
    cluster = StorageCluster(paper_bandwidth_profile(N))
    with tempfile.TemporaryDirectory() as tmp:
        with MetadataCatalog(f"{tmp}/meta") as catalog:
            rapids = RAPIDS(
                cluster, catalog, refactorer=Refactorer(4, num_planes=22),
                omega=OMEGA,
            )
            reports = [
                rapids.prepare(
                    f"scale:T.{i:03d}", obj.proxy((33, 33, 33), seed=i)
                )
                for i in range(4)
            ]
            print(
                f"\ningested {len(reports)} snapshots, worst overhead "
                f"{max(r.storage_overhead for r in reports):.3f}"
            )
            # lose two disks, scrub and repair, verify with a second scrub
            for sid in (3, 11):
                for key in cluster[sid].fragment_keys():
                    cluster[sid].delete(*key)
            scrub, repair = scrub_and_repair(
                cluster, catalog, ledger=rapids.ledger
            )
            again, _ = scrub_and_repair(cluster, catalog, ledger=rapids.ledger)
            print(
                f"disk loss on 2 systems: {scrub.counts()} found, "
                f"{repair.repaired} fragments regenerated, second scrub "
                f"{'clean' if again.clean else 'found damage'}"
            )


if __name__ == "__main__":
    main()
