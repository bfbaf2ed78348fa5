"""Exploring the availability / accuracy / overhead trade-off for NYX.

Sweeps the storage-overhead budget (omega) for a cosmology field and
compares RAPIDS's optimised configurations against data duplication and
plain erasure coding at paper scale (16 TB object, 16 systems,
p = 0.01) — the Fig. 2 analysis as a reusable script.

Run:  python examples/cosmology_tradeoff.py
"""

import numpy as np

from repro.core import DuplicationMethod, FTProblem, PlainECMethod, brute_force
from repro.datasets import get_object
from repro.refactor import Refactorer

N, P = 16, 0.01
TB = 1024**4


def main() -> None:
    obj = get_object("NYX:temperature")
    field = obj.proxy((49, 49, 49))
    refactored = Refactorer(4, num_planes=22).refactor(field)

    # Scale the measured level-size fractions to the 16 TB object.
    sizes = tuple(s / field.nbytes * obj.paper_bytes for s in refactored.sizes)
    errors = tuple(refactored.errors)
    print(f"{obj.full_name}: paper size {obj.paper_bytes / TB:.1f} TB, "
          f"measured errors {[f'{e:.1e}' for e in errors]}")

    print("\n--- RAPIDS: optimal configuration per overhead budget ---")
    print("omega   m_j            expected error   achieved overhead")
    for omega in (0.05, 0.10, 0.20, 0.35, 0.50):
        problem = FTProblem(
            n=N, p=P, sizes=sizes, errors=errors,
            original_size=obj.paper_bytes, omega=omega,
        )
        try:
            sol = brute_force(problem)
        except ValueError:
            print(f"{omega:.2f}   infeasible (budget below the minimal "
                  f"m=[{len(sizes)}..1] ladder)")
            continue
        print(f"{omega:.2f}   {str(sol.ms):14s} {sol.expected_error:.3e}"
              f"        {sol.overhead:.3f}")

    print("\n--- baselines at comparable availability ---")
    bw = np.full(N, 1e9)
    for method in (DuplicationMethod(2), DuplicationMethod(3)):
        rep = method.prepare(obj.paper_bytes, bw, p=P)
        print(f"DP x{method.replicas}: expected error {rep.expected_error:.3e}, "
              f"overhead {rep.storage_overhead:.2f}")
    for m in (2, 3, 4):
        method = PlainECMethod(N - m, m)
        rep = method.prepare(obj.paper_bytes, bw, p=P)
        print(f"EC({N - m}+{m}): expected error {rep.expected_error:.3e}, "
              f"overhead {rep.storage_overhead:.3f}")

    print(
        "\nReading the table: RAPIDS at omega=0.10 already beats EC(13+3)'s"
        "\nexpected error while using less than half its storage overhead —"
        "\nthe Fig. 2 result."
    )


if __name__ == "__main__":
    main()
