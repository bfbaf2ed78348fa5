"""Measured local scaling — the empirical basis of the Fig. 5/6 model.

Runs the *real* tile engine (``procpipe.refactor_tiles``, the one the
pipeline prepares multi-tile objects with) on this machine's cores —
weak scaling: one fixed-size axis-0 tile per worker, like the paper's
per-core data objects — and measures throughput.  This grounds the
cluster-scaling extrapolation: the model assumes near-linear
block-parallel scaling (efficiency exponent 0.97), and this bench
reports how real processes compare before it is extended to 1,024
modelled cores.
"""

import os
import time

import numpy as np
import pytest

from harness import print_table
from repro.datasets import gaussian_random_field
from repro.parallel import SharedArena, TileSource
from repro.parallel.procpipe import (
    reconstruct_tiles,
    refactor_tiles,
    refactorer_config,
    resolve_tiles,
)
from repro.refactor import Refactorer

MAX_PROCS = min(8, os.cpu_count() or 1)
#: axis-0 planes per worker (weak scaling): one 16 x 257 x 257 float32
#: tile, ~4 MiB — large enough that a pool run is not mostly start-up
BLOCK_PLANES = 16
PLANE = 257
CONFIG = refactorer_config(Refactorer(4, num_planes=22))


def _weak_scaling_data(processes: int) -> np.ndarray:
    return np.concatenate([
        gaussian_random_field(
            (BLOCK_PLANES, PLANE, PLANE), slope=3.5, seed=1 + p
        )
        for p in range(processes)
    ])


def refactor(data: np.ndarray, processes: int):
    """Every tile of ``data`` through the engine: ``(bounds, tiles, seconds)``.

    ``tiles[t]`` is what the pipeline's ``consume`` would receive for
    tile ``t``: payloads, error bounds, max|d| and level plans.
    """
    bounds = resolve_tiles(data.shape, data.dtype.itemsize, BLOCK_PLANES)
    tiles: list[dict] = []
    with TileSource(data) as src, SharedArena() as arena:
        t0 = time.perf_counter()
        refactor_tiles(
            src, bounds, CONFIG, processes, arena,
            lambda **tile: tiles.append(tile),
        )
        seconds = time.perf_counter() - t0
        assert arena.live_names == []
    return bounds, tiles, seconds


def measure(processes: int) -> float:
    """Refactoring throughput (bytes/s) with `processes` workers."""
    data = _weak_scaling_data(processes)
    _, _, seconds = refactor(data, processes)
    return data.nbytes / seconds


@pytest.mark.skipif(MAX_PROCS < 2, reason="single-core machine")
def test_weak_scaling_efficiency():
    """Measure and report weak-scaling efficiency; gate on what cannot
    depend on the host.

    The ratio moves with the core count and with every change to the
    one-process refactor: it is printed, never asserted.  Asserted: one
    tile per worker, and the same tiles refactored inline and by two
    pool workers give the same bytes and bounds (the round-trip bound
    is the next test's).
    """
    t1 = measure(1)
    tp = measure(MAX_PROCS)
    print(
        f"weak scaling at {MAX_PROCS} procs: {tp / 1e6:.1f} vs "
        f"{t1 / 1e6:.1f} MB/s, efficiency {tp / (t1 * MAX_PROCS):.2f}"
    )
    data = _weak_scaling_data(2)
    bounds_one, one, _ = refactor(data, 1)
    bounds_two, two, _ = refactor(data, 2)
    assert bounds_one == bounds_two
    assert len(one) == len(two) == 2
    for a, b in zip(one, two):
        assert a["payloads"] == b["payloads"]
        assert a["errors"] == b["errors"] and a["plans"] == b["plans"]


def test_roundtrip_correct_at_scale():
    data = _weak_scaling_data(2)
    bounds, tiles, _ = refactor(data, 2)
    jobs = [
        (lo, hi, tile["plans"], tile["payloads"])
        for (lo, hi), tile in zip(bounds, tiles)
    ]
    back = reconstruct_tiles(
        data.shape, str(data.dtype), jobs,
        max(tile["tile_max"] for tile in tiles), CONFIG["correction"],
        CONFIG, 2,
    )
    assert back.shape == data.shape and back.dtype == data.dtype
    for (lo, hi), tile in zip(bounds, tiles):
        err = float(np.max(np.abs(back[lo:hi] - data[lo:hi])))
        assert err <= tile["errors"][-1] * tile["tile_max"]


def test_bench_parallel_refactor(benchmark):
    data = _weak_scaling_data(2)
    _, tiles, _ = benchmark(refactor, data, 2)
    assert len(tiles) == 2


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
        "Measured weak scaling of tile-parallel refactoring (local cores)",
        ["workers", "throughput", "speedup", "efficiency"],
        rows,
    )
