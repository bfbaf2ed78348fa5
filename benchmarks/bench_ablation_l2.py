"""Ablation — the L2 projection correction in the multilevel transform.

MGARD's defining step over a plain hierarchical-surplus (interpolation)
transform is the L2 projection of each level's detail onto the coarse
space.  This bench quantifies what it buys: reconstruction accuracy from
coarse-only prefixes, at what transform-speed cost.
"""

import numpy as np

from harness import print_table
from repro.datasets import nyx_velocity
from repro.refactor import Refactorer


def accuracy_per_prefix(correction: bool):
    field = nyx_velocity((49, 49, 49))
    r = Refactorer(4, num_planes=22, correction=correction)
    obj = r.refactor(field)
    return obj.errors, obj.sizes


def test_correction_improves_coarse_prefixes():
    """With the correction, early-prefix (coarse) reconstructions are
    more accurate; the full reconstruction converges either way."""
    e_on, _ = accuracy_per_prefix(True)
    e_off, _ = accuracy_per_prefix(False)
    assert e_on[0] <= e_off[0] * 1.5  # never catastrophically worse
    # L2 projection minimises the L2 norm; measure it directly.
    field = nyx_velocity((49, 49, 49)).astype(np.float64)

    def coarse_l2(correction):
        r = Refactorer(4, num_planes=22, correction=correction)
        obj = r.refactor(field.astype(np.float32))
        back = r.reconstruct(obj, upto=1).astype(np.float64)
        return float(np.sqrt(np.mean((back - field) ** 2)))

    assert coarse_l2(True) < coarse_l2(False)


def test_both_modes_error_bounded():
    for corr in (True, False):
        e, _ = accuracy_per_prefix(corr)
        assert e[-1] < 1e-4
        assert e == sorted(e, reverse=True)


def test_bench_transform_with_correction(benchmark):
    field = nyx_velocity((49, 49, 49))
    r = Refactorer(4, num_planes=22, correction=True)
    benchmark(r.refactor, field, measure_errors=False)


def test_bench_transform_without_correction(benchmark):
    field = nyx_velocity((49, 49, 49))
    r = Refactorer(4, num_planes=22, correction=False)
    benchmark(r.refactor, field, measure_errors=False)


if __name__ == "__main__":
    rows = []
    for corr in (True, False):
        e, s = accuracy_per_prefix(corr)
        rows.append([
            "on" if corr else "off",
            "  ".join(f"{x:.2e}" for x in e),
            "  ".join(str(x) for x in s),
        ])
    print_table(
        "Ablation: L2 projection correction (NYX:velocity_x proxy)",
        ["correction", "errors e_j", "sizes s_j"],
        rows,
    )
