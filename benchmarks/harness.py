"""Shared harness for the paper-reproduction benches.

Every table/figure bench needs the same ingredients:

* the §5.1.2 bandwidth profile (16 remote systems, from synthetic Globus
  logs);
* per-object *refactoring profiles*: the six Table 2 objects are
  refactored at proxy scale to measure their level-size fractions and
  reconstruction errors, then the fractions are scaled to the paper's
  full byte sizes (the availability/transfer math consumes byte counts
  only, so it runs at genuine 2.98-16.82 TB scale);
* measured single-core operation rates feeding the cluster-scaling model.

All of it is computed once per session and cached.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core import FTProblem, brute_force
from repro.datasets import TABLE2, DataObject
from repro.ec import ErasureCodec
from repro.parallel import ClusterScalingModel, OperationRates
from repro.refactor import Refactorer
from repro.transfer import paper_bandwidth_profile

#: The evaluation cluster size (§5.1.2: 16 remote GCSs).
N_SYSTEMS = 16
#: Per-system outage probability (§5.1.4, OLCF 2020 report).
P_FAIL = 0.01
#: Proxy field resolution used to measure refactoring profiles.
PROXY_SHAPE = (49, 49, 49)
#: Magnitude bitplanes kept: the quantisation floor lands at ~2e-7
#: relative, matching the paper's finest-level error of 1e-7.
NUM_PLANES = 22
#: Default storage-overhead budget for the FT optimiser benches.
OMEGA = 0.25


@dataclass(frozen=True)
class ObjectProfile:
    """Measured refactoring profile of one Table 2 object."""

    obj: DataObject
    level_fractions: tuple[float, ...]  # s_j / S measured on the proxy
    errors: tuple[float, ...]  # e_j measured on the proxy
    compression_ratio: float

    @property
    def name(self) -> str:
        return self.obj.full_name

    @property
    def paper_bytes(self) -> float:
        return self.obj.paper_bytes

    @property
    def level_sizes(self) -> list[float]:
        """Paper-scale refactored level sizes s_j in bytes."""
        return [f * self.obj.paper_bytes for f in self.level_fractions]

    @property
    def refactored_bytes(self) -> float:
        return sum(self.level_sizes)

    def ft_problem(self, *, n: int = N_SYSTEMS, omega: float = OMEGA) -> FTProblem:
        return FTProblem(
            n=n,
            p=P_FAIL,
            sizes=tuple(self.level_sizes),
            errors=self.errors,
            original_size=self.obj.paper_bytes,
            omega=omega,
        )

    def optimal_ms(self, *, n: int = N_SYSTEMS, omega: float = OMEGA) -> list[int]:
        return brute_force(self.ft_problem(n=n, omega=omega)).ms


@lru_cache(maxsize=4)
def bandwidths(n: int = N_SYSTEMS) -> np.ndarray:
    """The §5.1.2 bandwidth profile (cached, deterministic)."""
    return paper_bandwidth_profile(n)


@lru_cache(maxsize=8)
def object_profiles(shape: tuple[int, ...] = PROXY_SHAPE) -> tuple[ObjectProfile, ...]:
    """Refactor every Table 2 proxy and return the measured profiles."""
    refactorer = Refactorer(4, num_planes=NUM_PLANES)
    out = []
    for obj in TABLE2:
        field = obj.proxy(shape)
        r = refactorer.refactor(field)
        fractions = tuple(s / field.nbytes for s in r.sizes)
        out.append(
            ObjectProfile(
                obj=obj,
                level_fractions=fractions,
                errors=tuple(r.errors),
                compression_ratio=r.compression_ratio,
            )
        )
    return tuple(out)


@lru_cache(maxsize=1)
def measured_rates(n: int = 49) -> OperationRates:
    """Measure single-core throughput of the four compute operations.

    Uses an n^3 float32 proxy; rates are bytes of *original data* per
    second, which is the unit the scaling model consumes.
    """
    from repro.datasets import nyx_temperature

    field = nyx_temperature((n, n, n))
    nbytes = field.nbytes
    refactorer = Refactorer(4, num_planes=NUM_PLANES)

    t0 = time.perf_counter()
    obj = refactorer.refactor(field, measure_errors=False)
    t_refactor = time.perf_counter() - t0

    t0 = time.perf_counter()
    refactorer.reconstruct(obj)
    t_reconstruct = time.perf_counter() - t0

    codec = ErasureCodec(N_SYSTEMS)
    payload = field.tobytes()
    t0 = time.perf_counter()
    enc = codec.encode_level(payload, 4)
    t_encode = time.perf_counter() - t0

    frags = {i: f for i, f in list(enumerate(enc.fragments))[: enc.config.k]}
    t0 = time.perf_counter()
    codec.decode_level(config=enc.config, fragments=frags)
    t_decode = time.perf_counter() - t0

    return OperationRates(
        refactor=nbytes / t_refactor,
        reconstruct=nbytes / t_reconstruct,
        ec_encode=nbytes / t_encode,
        ec_decode=nbytes / t_decode,
    )


@lru_cache(maxsize=1)
def scaling_model() -> ClusterScalingModel:
    """Scaling model for the absolute Table 4/5 numbers: rates calibrated
    to the paper's implied Andes per-core throughputs (see
    ``andes_calibrated_rates``); measured local rates back the
    shape/mechanism benches."""
    from repro.parallel import andes_calibrated_rates

    return ClusterScalingModel(andes_calibrated_rates())


@lru_cache(maxsize=1)
def local_scaling_model() -> ClusterScalingModel:
    """Scaling model built from genuinely measured local rates."""
    return ClusterScalingModel(measured_rates())


def write_bench_artifact(
    name: str, payload: dict, outdir: str | Path | None = None
) -> Path:
    """Write a machine-readable bench result as ``BENCH_<name>.json``.

    The artifact lands in the repo root by default (next to the human
    reports), tagged with enough environment context to compare runs;
    CI uploads it so kernel regressions are diffable across commits.
    """
    out = Path(outdir) if outdir is not None else Path(__file__).resolve().parent.parent
    payload = {
        "bench": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **payload,
    }
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a fixed-width table like the paper's."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
