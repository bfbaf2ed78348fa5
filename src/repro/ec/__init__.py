"""Erasure-coding substrate: GF(256) arithmetic and systematic Reed-Solomon.

Stand-in for ``liberasurecode`` in the original RAPIDS implementation.
The planned/chunked kernels in :mod:`repro.ec.kernels` are the hot
path; :mod:`repro.ec.matrix` keeps the simple reference implementation
they are verified against.
"""

from .codec import ECConfig, EncodedLevel, ErasureCodec
from .kernels import EncodePlan, plan_for, planned_matmul
from .reed_solomon import RSCode

__all__ = [
    "ECConfig",
    "EncodedLevel",
    "ErasureCodec",
    "RSCode",
    "EncodePlan",
    "plan_for",
    "planned_matmul",
]
