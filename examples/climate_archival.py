"""Archiving hurricane-simulation output with self-describing fragments.

The scenario the paper's introduction motivates: a climate campaign
produces pressure and temperature fields that must stay accessible
through storage-system outages and scheduled maintenance windows.  This
example exercises the file-backed path of the pipeline:

* every storage system is a directory, and every fragment placed on it
  is a self-describing container file (the HDF5/ADIOS substitute) that
  carries the object name, level and index it belongs to; the object
  record in the catalog holds the level's EC parameters;
* the storage systems and the metadata catalog persist across
  "sessions" (process restarts);
* a maintenance schedule takes systems down at different times and the
  restore quality is reported per window.

Run:  python examples/climate_archival.py
"""

import tempfile
from pathlib import Path

from repro import RAPIDS, MetadataCatalog, relative_linf_error
from repro.datasets import hurricane_pressure, hurricane_temperature
from repro.formats import read_fragment_file
from repro.storage import FileStorageCluster, MaintenanceSchedule
from repro.transfer import paper_bandwidth_profile

OBJECTS = {
    "hurricane:Pf48": hurricane_pressure((33, 65, 65)),
    "hurricane:TCf48": hurricane_temperature((33, 65, 65)),
}


def main() -> None:
    bw = paper_bandwidth_profile(16)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        # --- archival session -------------------------------------------
        cluster = FileStorageCluster(tmp / "cluster", bandwidths=bw)
        with MetadataCatalog(tmp / "metadata") as catalog:
            rapids = RAPIDS(cluster, catalog, omega=0.3)
            for name, field in OBJECTS.items():
                rep = rapids.prepare(name, field)
                print(
                    f"archived {name}: m={rep.ft_config}, "
                    f"overhead {rep.storage_overhead:.3f}, "
                    f"distribution latency {rep.distribution_latency:.1f}s "
                    f"(simulated WAN)"
                )

            # Fragment files are self-describing: any file identifies
            # itself, and its object record says how the level is coded.
            sample = sorted((tmp / "cluster" / "system-00").glob("*.rdc"))[0]
            attrs, payload = read_fragment_file(sample)
            rec = catalog.get_object(attrs["object_name"])
            m = rec.ft_config[attrs["level"]]
            print(
                f"\nself-describing fragment {sample.name}: object="
                f"{attrs['object_name']!r} level={attrs['level']} "
                f"index={attrs['index']} (k={rec.n_systems - m}, m={m}), "
                f"{len(payload)} bytes"
            )

        # --- maintenance calendar ----------------------------------------
        sched = MaintenanceSchedule()
        sched.add_window(0, 0.0, 48.0)    # site 0 down for two days
        sched.add_window(1, 24.0, 72.0)   # overlapping window at site 1
        sched.add_window(2, 24.0, 30.0)
        sched.add_window(7, 60.0, 96.0)
        # A coordinated facility upgrade takes five sites down at once —
        # more than the lower levels tolerate, so quality degrades
        # gracefully instead of the data going dark.
        for sid in (3, 4, 5, 6, 8):
            sched.add_window(sid, 25.0, 29.0)

        # --- analysis sessions reopen the systems and catalog from disk --
        cluster = FileStorageCluster(tmp / "cluster")
        with MetadataCatalog(tmp / "metadata") as catalog:
            rapids = RAPIDS(cluster, catalog, omega=0.3)
            print("\nhour  down systems      object           levels  rel.err")
            for hour in (12.0, 26.0, 66.0):
                down = sched.down_at(hour)
                cluster.restore_all()
                cluster.fail(down)
                for name, field in OBJECTS.items():
                    res = rapids.restore(name, strategy="naive")
                    err = (
                        relative_linf_error(field, res.data)
                        if res.data is not None
                        else 1.0
                    )
                    print(
                        f"{hour:4.0f}  {str(down):16s} {name:16s} "
                        f"{res.levels_used}/4     {err:.2e}"
                    )


if __name__ == "__main__":
    main()
