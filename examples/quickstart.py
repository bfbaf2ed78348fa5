"""Quickstart: protect a scientific array with RAPIDS and survive outages.

Walks the full loop in ~40 lines of API:

1. generate a synthetic simulation field;
2. ``prepare`` — refactor + optimise fault tolerance + erasure-code +
   distribute to 16 simulated geo-distributed storage systems;
3. knock out storage systems;
4. ``restore`` — gather what survives and reconstruct the best available
   approximation.

Run:  python examples/quickstart.py
"""

import tempfile

from repro import RAPIDS, MetadataCatalog, StorageCluster, relative_linf_error
from repro.datasets import nyx_temperature
from repro.transfer import paper_bandwidth_profile


def main() -> None:
    # A 3-D temperature field standing in for real simulation output.
    data = nyx_temperature((49, 49, 49))
    print(f"original data: {data.shape} float32, {data.nbytes / 1024:.0f} KiB")

    # 16 geo-distributed storage systems with Globus-log bandwidths.
    cluster = StorageCluster(paper_bandwidth_profile(16))
    with tempfile.TemporaryDirectory() as tmp:
        catalog = MetadataCatalog(f"{tmp}/metadata")
        rapids = RAPIDS(cluster, catalog, omega=0.25)

        report = rapids.prepare("nyx:temperature", data)
        print(f"fault-tolerance config m_j = {report.ft_config}")
        print(f"level sizes   s_j = {report.level_sizes} bytes")
        print(f"level errors  e_j = {[f'{e:.2e}' for e in report.level_errors]}")
        print(f"storage overhead  = {report.storage_overhead:.3f} "
              f"(budget 0.25)")
        print(f"expected rel. error = {report.expected_error:.3e}")

        # Fail a growing number of systems and watch quality degrade
        # gracefully instead of all-or-nothing.
        for failures in (0, 2, 5, 9):
            cluster.restore_all()
            cluster.fail(range(failures))
            result = rapids.restore("nyx:temperature", strategy="naive")
            if result.data is None:
                print(f"{failures:2d} failures -> nothing recoverable")
                continue
            err = relative_linf_error(data, result.data)
            print(
                f"{failures:2d} failures -> {result.levels_used}/4 levels, "
                f"rel. L-inf error {err:.2e}"
            )
        catalog.close()


if __name__ == "__main__":
    main()
