"""Riding out an announced maintenance window without going dark.

Scheduled maintenance is announced in advance, and an operator can use
that.  A window that takes |W| systems down loses every level with
m_j < |W|.  Before the window, live-migrate each object to the
decreasing ladder max(m_j, |W| + l - 1 - j) — the same generation-safe
re-encode the control loop uses, tracked by the ledger and the
scrubber; during it, restore as usual; after it, migrate back to the
original configuration and scrub.  One of the two objects is stored in
axis-0 tiles, the layout every object of 32 MiB or more gets: it is
re-encoded tile by tile through its record's tile table.

Run:  python examples/maintenance_window.py
"""

import tempfile

from repro.control import LiveMigrator
from repro.core import RAPIDS, recoverable_levels
from repro.datasets import nyx_temperature, scale_pressure
from repro.healing import scrub_and_repair
from repro.metadata import MetadataCatalog
from repro.refactor import relative_linf_error
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile


def main() -> None:
    cluster = StorageCluster(paper_bandwidth_profile(16))
    with tempfile.TemporaryDirectory() as tmp:
        with MetadataCatalog(f"{tmp}/meta") as catalog:
            rapids = RAPIDS(cluster, catalog, omega=0.25)
            objects = {
                "nyx:T": nyx_temperature((33, 33, 33)),
                "scale:P": scale_pressure((33, 33, 33)),
            }
            layouts = {
                "scale:P": dict(parallelism="process", processes=1, tile_planes=8)
            }
            original = {
                name: rapids.prepare(name, data, **layouts.get(name, {})).ft_config
                for name, data in objects.items()
            }
            tiles = len(catalog.get_object("scale:P").tile_table()[0])
            ms = original["nyx:T"]
            levels = len(ms)
            print(f"archive protected with m = {ms} (scale:P in {tiles} tiles)")

            # The facility announces: systems 0..m_l+1 down next Tuesday.
            down = list(range(ms[-1] + 2))
            kept = recoverable_levels(ms, down, cluster.n)
            print(f"window takes {len(down)} systems down -> only "
                  f"{len(kept)}/{levels} levels would stay recoverable")

            # Before the window: raise the at-risk levels' parity.
            before = cluster.total_stored_bytes()
            migrator = LiveMigrator(rapids)
            for name, config in original.items():
                ladder = [
                    max(m, len(down) + levels - 1 - j)
                    for j, m in enumerate(config)
                ]
                report = migrator.migrate(name, ladder)
                print(f"  {name}: m {config} -> {ladder} "
                      f"({report.migrated} level(s) re-encoded)")
            extra = cluster.total_stored_bytes() - before
            print(f"window protection costs {extra} B "
                  f"({extra / before:.1%} of archive bytes)")

            # Tuesday arrives: plain restores serve every level.
            cluster.fail(down)
            for name, data in objects.items():
                res = rapids.restore(name, strategy="naive")
                print(f"  {name}: {res.levels_used}/{levels} levels, "
                      f"err {relative_linf_error(data, res.data):.1e}")

            # Window over: systems return, parity goes back, scrub checks.
            cluster.restore_all()
            for name, config in original.items():
                migrator.migrate(name, config)
            scrub, _ = scrub_and_repair(cluster, catalog, ledger=rapids.ledger)
            print(f"window over: back to m = {ms}, "
                  f"{cluster.total_stored_bytes() - before:+d} B vs before, "
                  f"scrub {'clean' if scrub.clean else 'found damage'}")


if __name__ == "__main__":
    main()
