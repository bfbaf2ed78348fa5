"""Fig. 7 — refactoring/reconstruction throughput: 1 CPU core vs GPU.

Two layers (see DESIGN.md's substitution table):

1. *Measured*: the batched transform backend processes a whole stack of
   blocks per kernel call — the same restructuring a CUDA port performs.
   We measure its throughput against the one-block-at-a-time loop.
2. *Modelled*: the calibrated K80 device model converts the measured
   single-core rates into device rates using the paper's average ratios
   (3.7x refactor, 20.3x reconstruct).
"""

import time

import numpy as np
import pytest

from harness import measured_rates, print_table
from repro.datasets import TABLE2
from repro.parallel import K80_MODEL, batched_decompose, batched_recompose
from repro.refactor import transform

BLOCKS = 16
BLOCK_SHAPE = (17, 17, 17)


def _stack(obj, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([
        obj.generator(BLOCK_SHAPE, seed=int(rng.integers(1 << 30)))
        for _ in range(BLOCKS)
    ]).astype(np.float64)


def measured_batching_speedup(obj) -> tuple[float, float]:
    """(decompose speedup, recompose speedup) of batched vs looped."""
    stack = _stack(obj)

    t0 = time.perf_counter()
    for b in range(BLOCKS):
        transform.decompose(stack[b])
    t_loop_d = time.perf_counter() - t0

    t0 = time.perf_counter()
    mallat, plans = batched_decompose(stack)
    t_batch_d = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, plans_single = transform.decompose(stack[0])
    single = [transform.decompose(stack[b])[0] for b in range(BLOCKS)]
    for b in range(BLOCKS):
        transform.recompose(single[b], plans_single)
    t_loop_r = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched_recompose(mallat, plans)
    t_batch_r = time.perf_counter() - t0
    # the loop timing above includes the decompose; remove it
    t_loop_r = max(t_loop_r - t_loop_d, t_batch_r * 0.5)
    return t_loop_d / t_batch_d, t_loop_r / t_batch_r


def modelled_gpu_throughputs() -> dict[str, tuple[float, float, float, float]]:
    """Per-object (cpu refactor, gpu refactor, cpu reconstruct, gpu
    reconstruct) throughput in bytes/s."""
    rates = measured_rates()
    out = {}
    for obj in TABLE2:
        cpu_rf = rates.refactor
        cpu_rc = rates.reconstruct
        out[obj.full_name] = (
            cpu_rf,
            K80_MODEL.device_throughput("refactor", cpu_rf),
            cpu_rc,
            K80_MODEL.device_throughput("reconstruct", cpu_rc),
        )
    return out


def test_batching_speeds_up_transform():
    """The measured mechanism: one wide batch computes exactly what the
    per-block loop does.  The speedup is wall clock, so it is printed,
    not asserted."""
    stack = _stack(TABLE2[0])
    mallat, plans = batched_decompose(stack)
    looped = [transform.decompose(block, plans)[0] for block in stack]
    assert np.array_equal(mallat, np.stack(looped))
    assert np.array_equal(
        batched_recompose(mallat, plans),
        np.stack([transform.recompose(m, plans) for m in looped]),
    )
    d, r = measured_batching_speedup(TABLE2[0])
    print(f"batching speedup: decompose {d:.2f}x, recompose {r:.2f}x")


def test_modelled_ratios_match_paper_averages():
    rows = modelled_gpu_throughputs()
    rf_ratios = [g / c for c, g, _, _ in rows.values()]
    rc_ratios = [g / c for _, _, c, g in rows.values()]
    assert np.mean(rf_ratios) == pytest.approx(3.7)
    assert np.mean(rc_ratios) == pytest.approx(20.3)


def test_reconstruction_benefits_more():
    """Fig. 7's asymmetry: the GPU helps reconstruction far more."""
    for c_rf, g_rf, c_rc, g_rc in modelled_gpu_throughputs().values():
        assert g_rc / c_rc > g_rf / c_rf


def test_bench_batched_decompose(benchmark):
    stack = _stack(TABLE2[0])
    out, _ = benchmark(batched_decompose, stack)
    assert out.shape == stack.shape


if __name__ == "__main__":
    GB = 1e9
    rows = []
    for name, (c_rf, g_rf, c_rc, g_rc) in modelled_gpu_throughputs().items():
        rows.append([
            name, f"{c_rf / GB:.3f}", f"{g_rf / GB:.3f}",
            f"{c_rc / GB:.3f}", f"{g_rc / GB:.3f}",
        ])
    print_table(
        "Fig. 7: refactor/reconstruct throughput (GB/s), 1 CPU core vs modelled K80",
        ["Object", "CPU rf", "GPU rf", "CPU rc", "GPU rc"],
        rows,
    )
    d, r = measured_batching_speedup(TABLE2[0])
    print(f"\nMeasured kernel-batching speedup (the GPU mechanism, on this "
          f"machine): decompose {d:.2f}x, recompose {r:.2f}x")
