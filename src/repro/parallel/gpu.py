"""GPU-style batched execution and the calibrated device model (Fig. 7).

No GPU is available in this environment, so Fig. 7 is reproduced in two
parts (documented substitution):

1. :func:`batched_decompose` / :func:`batched_recompose` demonstrate the
   *mechanism* a GPU port exploits — restructuring the per-block
   transform into one wide batched kernel over all blocks at once, which
   amortises per-kernel overhead exactly as CUDA kernel fusion does.
   The measured speedup of batched-over-looped is a real number produced
   on this machine.
2. :class:`GPUDeviceModel` maps single-core CPU throughput to modelled
   device throughput using a throughput ratio calibrated against the
   paper's K80-vs-EPYC-core measurements (3.7x refactoring, 20.3x
   reconstruction on average), so the Fig. 7 bench reports both the real
   batching speedup and the modelled device numbers side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..refactor import transform
from ..refactor.grid import plan_levels

__all__ = ["batched_decompose", "batched_recompose", "GPUDeviceModel", "K80_MODEL"]


def batched_decompose(blocks: np.ndarray):
    """Decompose a (B, n1, ..., nk) stack of equal-shape blocks at once.

    The block axis rides along as the transform's batch axis: every 1-D
    line kernel sees B times more lines per call, which is the same
    restructuring a GPU implementation performs to fill the device.
    Returns ``(mallat_stack, plans)`` where plans cover the block shape
    (axes 1..k only, at most 6 levels), each block bit-identical to its
    own decomposition.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim < 2:
        raise ValueError("expected a (B, ...) stack of blocks")
    plans = plan_levels(blocks.shape[1:], 6)
    return transform.decompose(blocks, plans)


def batched_recompose(mallat_stack: np.ndarray, plans) -> np.ndarray:
    """Inverse of :func:`batched_decompose`: each block equal to its own
    recomposition, up to the sign of a zero (:func:`transform.recompose`)."""
    return transform.recompose(mallat_stack, plans)


@dataclass(frozen=True)
class GPUDeviceModel:
    """Calibrated device throughput relative to one CPU core.

    ``refactor_speedup`` and ``reconstruct_speedup`` are the average
    device-vs-single-core ratios; the paper measured 3.7x and 20.3x for
    an NVIDIA K80 against one EPYC 7302 core (Fig. 7).  The asymmetry is
    real: reconstruction is dominated by the gather-heavy inverse
    transform whose memory-bound inner loops benefit most from the GPU's
    bandwidth.
    """

    name: str
    refactor_speedup: float
    reconstruct_speedup: float

    def __post_init__(self) -> None:
        if self.refactor_speedup <= 0 or self.reconstruct_speedup <= 0:
            raise ValueError("speedups must be positive")

    def device_throughput(self, op: str, cpu_core_throughput: float) -> float:
        """Modelled device throughput (bytes/s) from a measured CPU rate."""
        if cpu_core_throughput <= 0:
            raise ValueError("cpu throughput must be positive")
        if op == "refactor":
            return cpu_core_throughput * self.refactor_speedup
        if op == "reconstruct":
            return cpu_core_throughput * self.reconstruct_speedup
        raise KeyError(f"unknown operation {op!r}")


#: The paper's GPU: NVIDIA K80 vs one AMD EPYC 7302 core (Fig. 7 averages).
K80_MODEL = GPUDeviceModel(
    name="NVIDIA K80", refactor_speedup=3.7, reconstruct_speedup=20.3
)
