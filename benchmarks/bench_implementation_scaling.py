"""Implementation-scaling bench — cost vs data size of the core kernels.

Confirms the per-byte costs the cluster model extrapolates are *flat*:
refactoring, reconstruction and EC coding scale linearly in input bytes
(no super-linear surprises from the transform's level recursion, the
bitplane pass, or the GF matrix kernels), so per-core rates measured at
proxy scale extend to paper scale.
"""

import time

import pytest

from harness import print_table
from repro.datasets import gaussian_random_field
from repro.ec import RSCode
from repro.refactor import Refactorer

SIZES = [17, 25, 33, 49, 65]


def _rate(n: int, op: str) -> float:
    """bytes/s of `op` on an n^3 proxy (best of 2)."""
    field = gaussian_random_field((n, n, n), slope=3.5, seed=0)
    r = Refactorer(4, num_planes=22)
    code = RSCode(12, 4)
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        if op == "refactor":
            r.refactor(field, measure_errors=False)
        elif op == "reconstruct":
            obj = r.refactor(field, measure_errors=False)
            t0 = time.perf_counter()
            r.reconstruct(obj)
        elif op == "ec":
            payload = field.tobytes()
            t0 = time.perf_counter()
            code.encode(payload)
        else:
            raise ValueError(op)
        best = min(best, time.perf_counter() - t0)
    return field.nbytes / best


@pytest.mark.parametrize("op", ["refactor", "reconstruct", "ec"])
def test_throughput_roughly_flat(op):
    """Per-byte cost must not blow up with size: the largest proxy's
    throughput stays within 5x of the best observed (allowing cache
    effects and fixed overheads at the small end)."""
    rates = [_rate(n, op) for n in (17, 33, 65)]
    assert max(rates) / rates[-1] < 5.0, rates


def test_larger_inputs_amortise_overheads():
    """Throughput at 65^3 beats 17^3 (fixed per-call overheads dominate
    tiny inputs)."""
    assert _rate(65, "refactor") > _rate(17, "refactor")


def test_bench_refactor_65(benchmark):
    field = gaussian_random_field((65, 65, 65), slope=3.5, seed=0)
    r = Refactorer(4, num_planes=22)
    benchmark(r.refactor, field, measure_errors=False)


if __name__ == "__main__":
    rows = []
    for n in SIZES:
        nbytes = n**3 * 4
        rows.append([
            f"{n}^3 ({nbytes / 1e6:.1f} MB)",
            f"{_rate(n, 'refactor') / 1e6:.1f}",
            f"{_rate(n, 'reconstruct') / 1e6:.1f}",
            f"{_rate(n, 'ec') / 1e6:.1f}",
        ])
    print_table(
        "Implementation scaling: throughput (MB/s) vs proxy size",
        ["proxy", "refactor", "reconstruct", "EC encode"],
        rows,
    )
