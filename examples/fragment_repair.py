"""Repairing lost fragments (§4.2's repair path).

When a fragment is permanently lost (disk failure rather than a
transient outage), RAPIDS rebuilds it from surviving fragments via
minimal-read erasure decoding, writes it back CRC-verified and records
the placement in the durability ledger.  This example:

1. prepares an object across 16 systems;
2. permanently destroys the fragments on two systems;
3. scrubs the cluster against the ledger and repairs what it found;
4. proves a later restore works even after *additional* outages that
   would have exceeded the original tolerance had the repair not run.

Run:  python examples/fragment_repair.py
"""

import tempfile

from repro import RAPIDS, MetadataCatalog, StorageCluster, relative_linf_error
from repro.datasets import scale_pressure
from repro.healing import scrub_and_repair
from repro.transfer import paper_bandwidth_profile


def main() -> None:
    data = scale_pressure((33, 33, 33))
    cluster = StorageCluster(paper_bandwidth_profile(16))
    with tempfile.TemporaryDirectory() as tmp:
        catalog = MetadataCatalog(f"{tmp}/meta")
        rapids = RAPIDS(cluster, catalog, omega=0.3)
        prep = rapids.prepare("scale:PRES", data)
        print(f"prepared with m = {prep.ft_config}")

        # Two systems lose their disks: fragments gone for good.
        lost_systems = [2, 5]
        for sid in lost_systems:
            for key in cluster[sid].fragment_keys():
                cluster[sid].delete(*key)
        print(f"destroyed all fragments on systems {lost_systems}")

        # Scrub finds the damage; repair regenerates each lost fragment
        # from k survivors back onto its (now fresh) home system.
        scrub, repair = scrub_and_repair(cluster, catalog, ledger=rapids.ledger)
        print(scrub.describe())
        print(repair.describe())
        assert scrub_and_repair(cluster, catalog, ledger=rapids.ledger)[0].clean

        # Now additional outages happen.  Combined with the two lost
        # disks this would have exceeded the bottom level's tolerance —
        # but the repair restored full redundancy.
        extra = [0, 1, 9]
        cluster.fail(extra)
        res = rapids.restore("scale:PRES", strategy="naive")
        err = relative_linf_error(data, res.data)
        levels = len(prep.ft_config)
        print(
            f"after {len(extra)} further outages: {res.levels_used}/"
            f"{levels} levels restored, rel. error {err:.2e}"
        )
        assert res.levels_used == levels
        catalog.close()


if __name__ == "__main__":
    main()
