"""Protecting a time-evolving simulation as a single 4-D object.

Snapshot sequences are usually archived one file per step; RAPIDS can
instead refactor the whole (t, z, y, x) array, letting the transform
exploit *temporal* smoothness for extra compression, and letting one
fault-tolerance configuration protect the entire sequence.  This example:

1. generates an advected, slowly decorrelating 4-D sequence;
2. compares compression: 4-D refactoring vs per-snapshot refactoring;
3. protects the sequence through the pipeline and restores it with
   three systems down.

Run:  python examples/timeseries_archive.py
"""

import tempfile

import numpy as np

from repro import RAPIDS, MetadataCatalog, StorageCluster, relative_linf_error
from repro.datasets import advected_sequence
from repro.refactor import Refactorer
from repro.transfer import paper_bandwidth_profile


def main() -> None:
    steps, n = 16, 25
    seq = advected_sequence(steps, (n, n, n), decorrelation=0.02, seed=0)
    print(f"sequence: {seq.shape} float32, {seq.nbytes / 1024:.0f} KiB")

    # --- 4-D vs per-snapshot compression --------------------------------
    r = Refactorer(4, num_planes=22)
    joint = r.refactor(seq, measure_errors=False)
    per_snap = [r.refactor(seq[t], measure_errors=False) for t in range(steps)]
    per_total = sum(o.total_bytes for o in per_snap)
    print(
        f"4-D refactoring: {joint.total_bytes} B "
        f"(CR {joint.compression_ratio:.2f}x)\n"
        f"per-snapshot   : {per_total} B "
        f"(CR {seq.nbytes / per_total:.2f}x)\n"
        f"temporal smoothness buys "
        f"{(per_total - joint.total_bytes) / per_total:.0%}"
    )

    # --- protect and restore through the pipeline ---------------------------
    cluster = StorageCluster(paper_bandwidth_profile(16))
    with tempfile.TemporaryDirectory() as tmp:
        with MetadataCatalog(f"{tmp}/meta") as catalog:
            rapids = RAPIDS(
                cluster, catalog,
                refactorer=Refactorer(4, num_planes=22), omega=0.3,
            )
            prep = rapids.prepare("xgc:sequence", seq)
            cluster.fail([1, 5, 9])
            res = rapids.restore("xgc:sequence", strategy="naive")
            err = relative_linf_error(seq, res.data)
            print(
                f"\npipeline: m={prep.ft_config}, 3 systems down -> "
                f"{res.levels_used}/4 levels, error {err:.1e}"
            )


if __name__ == "__main__":
    main()
