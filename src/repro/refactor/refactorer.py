"""Public refactoring API: the pMGARD substitute.

:class:`Refactorer` turns an nD floating-point array into a
:class:`RefactoredObject` — a hierarchical representation of ``l``
progressive components with sizes s1 << s2 << ... << sl and measured
reconstruction errors e1 >> e2 >> ... >> el — and reconstructs an
approximation of the original array from any prefix of those components.
These (s_j, e_j) pairs are exactly what the RAPIDS optimisation models in
:mod:`repro.core` consume.

The heavy stages run on the chunked kernels of
:mod:`repro.refactor.kernels` and tile over threads (``workers=``; left
unset, small arrays run inline).  ``measure_errors=True`` decodes
nothing: the encoder's own quantised magnitudes are dequantised once
into a Mallat-layout array, each prefix is a power-of-two truncation of
it, the prefixes share inverse transforms on its batch axis, and one
L-infinity pass runs per component.  The measured values are
bit-identical to reconstructing every prefix from its payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..parallel.threads import auto_workers
from . import bitplane, components, kernels, transform
from .error_model import relative_linf_error, theoretical_bound
from .grid import LevelPlan

__all__ = [
    "Refactorer",
    "RefactoredObject",
    "RefactorStream",
    "refactor_block",
    "reconstruct_block",
]


def refactor_block(
    block: np.ndarray, config: dict, *, measure_errors: bool = False
) -> RefactoredObject:
    """Module-level refactor stage callable (picklable for process pools).

    ``config`` holds :class:`Refactorer` constructor kwargs.  Process
    pools can only ship module-level functions on ``spawn`` start
    methods, so every pool in :mod:`repro.parallel` submits this (and
    :func:`reconstruct_block`) rather than a bound method or closure.
    """
    return Refactorer(**config).refactor(block, measure_errors=measure_errors)


def reconstruct_block(obj: "RefactoredObject", config: dict) -> np.ndarray:
    """Module-level reconstruct stage callable (picklable counterpart)."""
    return Refactorer(**config).reconstruct(obj)


#: Elements one error-measurement recompose may stack.  A small
#: object's prefixes then share one sweep, whose time is per-call
#: overhead (~1 ms a recompose at 4 Ki elements), while an object at
#: or above the budget measures one prefix at a time in one reused
#: buffer.  Bounded so the stack adds ~1 MiB to a small request, not a
#: copy per prefix.
_MEASURE_BATCH_ELEMENTS = 1 << 16


def _truncate_to_prefix(
    full: np.ndarray, out: np.ndarray, plans: list[LevelPlan],
    exponents: list[int], kept: list[int],
) -> None:
    """Write ``full`` cut to the first ``kept[g]`` planes of each group.

    ``full`` is Mallat-layout, every group dequantised at all its
    planes.  Keeping ``k`` planes clears low bits of the integer
    magnitudes: ``trunc(v / step) * step`` with ``step = 2**(exponent -
    k + 1)``, exact because magnitudes are integer-valued doubles and
    ``step`` a power of two.  Group ``g`` is its corner minus the next
    coarser one, so whole corners are cut from the finest inwards.  A
    value cut to nothing keeps its sign (``-0.0``), which no sum with a
    non-zero term and no ``|x - x^|`` can see.
    """
    corners = [plans[-1].coarse_shape] + [p.fine_shape for p in reversed(plans)]
    for g in reversed(range(len(corners))):
        corner = tuple(slice(0, n) for n in corners[g])
        if kept[g] == 0:
            out[corner] = 0.0
            continue
        step = 2.0 ** (exponents[g] - kept[g] + 1)
        dst = out[corner]
        np.divide(full[corner], step, out=dst)
        np.trunc(dst, out=dst)
        dst *= step


@dataclass
class RefactoredObject:
    """A refactored dataset: progressive component payloads + metadata.

    Attributes
    ----------
    shape / dtype:
        Original array geometry (reconstruction restores both).
    plans:
        Multilevel decomposition plan (fine-to-coarse).
    payloads:
        Serialised component byte strings, most important first.  The
        paper's level sizes are ``sizes[j] = len(payloads[j])``.
    errors:
        ``errors[j]`` is the measured relative L-infinity error when the
        first ``j+1`` components are used for reconstruction (the paper's
        e_{j+1}).
    bounds:
        The corresponding theoretical error bounds (same indexing).
    data_max:
        max|d| of the original data (needed by the error metrics).
    correction:
        Whether the L2 correction was applied in the transform.
    """

    shape: tuple[int, ...]
    dtype: str
    plans: list[LevelPlan]
    payloads: list[bytes]
    errors: list[float]
    bounds: list[float]
    data_max: float
    correction: bool = True
    meta: dict = field(default_factory=dict)

    @property
    def num_components(self) -> int:
        return len(self.payloads)

    @property
    def sizes(self) -> list[int]:
        """Component sizes in bytes (the paper's s_j)."""
        return [len(p) for p in self.payloads]

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes)

    @property
    def original_nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    @property
    def compression_ratio(self) -> float:
        """Original bytes per refactored byte (all components)."""
        return self.original_nbytes / max(1, self.total_bytes)


@dataclass
class RefactorStream:
    """A refactored object whose payloads serialise on demand.

    ``sizes`` are the exact serialised byte lengths, known *before* any
    payload exists — enough for the fault-tolerance solver.  Iterating
    yields ``(index, payload)`` in progressive order, serialising each
    component lazily and appending it to ``obj.payloads``, so a consumer
    can hand component ``j`` to the erasure coder while ``j + 1`` is
    still being assembled.
    """

    obj: RefactoredObject
    sizes: list[int]
    _gen: Iterator[tuple[int, bytes]]

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        return self._gen


class Refactorer:
    """Error-controlled progressive refactoring of scientific arrays.

    Parameters
    ----------
    num_components:
        Number of progressive levels to emit (the paper uses 4).
    max_levels:
        Cap on multilevel decomposition depth (actual depth also limited
        by the array shape).
    num_planes:
        Magnitude bitplanes kept per coefficient group; sets the error
        floor of the full reconstruction.
    correction:
        Apply MGARD's L2 projection correction (ablation switch).
    policy / size_ratio:
        Bitplane grouping policy, see :func:`repro.refactor.components.group_planes`.
    workers:
        Thread fan-out for the transform tiles, per-plane blob jobs and
        component (de)serialisation.  ``None`` picks it per call from
        the array size (inline for small arrays, else one worker per
        CPU); every worker count produces bit-identical output.
    """

    def __init__(
        self,
        num_components: int = 4,
        *,
        max_levels: int = 6,
        num_planes: int = 32,
        correction: bool = True,
        policy: str = "importance",
        size_ratio: float = 4.0,
        workers: int | None = None,
    ) -> None:
        if num_components < 1:
            raise ValueError("num_components must be >= 1")
        self.num_components = num_components
        self.max_levels = max_levels
        self.num_planes = num_planes
        self.correction = correction
        self.policy = policy
        self.size_ratio = size_ratio
        self.workers = workers

    # -- forward path ---------------------------------------------------

    def refactor(
        self, data: np.ndarray, *, measure_errors: bool = True
    ) -> RefactoredObject:
        """Decompose, bitplane-encode, and regroup ``data``.

        ``measure_errors=False`` skips the per-prefix empirical error
        measurement and reports only the closed-form bounds; use it on
        large arrays in benchmarks.  (With measurement on, the cost is
        the inverse transform of every prefix, cut from the encoder's
        own magnitudes and batched into as few sweeps as the stack
        budget allows — not a decode+reconstruct per prefix.)
        """
        state = self._encode(data)
        obj = state["obj"]
        obj.payloads = components.components_to_bytes(
            state["comps"], state["planesets"], workers=state["workers"]
        )
        if measure_errors:
            obj.errors = self._measure_errors(
                state["data"], obj, state.pop("decoded"),
                state["kept_after"], state["workers"],
            )
        else:
            obj.errors = list(obj.bounds)
        return obj

    def refactor_stream(self, data: np.ndarray) -> RefactorStream:
        """Refactor with lazily-serialised payloads (errors = bounds).

        Semantically equivalent to ``refactor(data,
        measure_errors=False)`` — identical payload bytes, sizes, bounds
        — but the exact component sizes are available up front and each
        payload is serialised only when the stream is consumed, letting
        the pipeline overlap downstream work (EC encoding) with
        serialisation.
        """
        state = self._encode(data)
        obj = state["obj"]
        obj.errors = list(obj.bounds)
        comps, planesets = state["comps"], state["planesets"]
        sizes = [c.serialized_nbytes for c in comps]

        def _gen() -> Iterator[tuple[int, bytes]]:
            for j, comp in enumerate(comps):
                payload = components.component_to_bytes(comp, planesets)
                obj.payloads.append(payload)
                yield j, payload

        return RefactorStream(obj=obj, sizes=sizes, _gen=_gen())

    def _encode(self, data: np.ndarray) -> dict:
        """Shared forward path up to grouped (unserialised) components."""
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            raise TypeError(f"expected floating-point data, got {data.dtype}")
        if data.ndim < 1:
            raise ValueError("scalar input cannot be refactored")
        if not np.all(np.isfinite(data)):
            raise ValueError(
                "data contains NaN or Inf; refactoring requires finite "
                "values (mask or fill missing data first)"
            )
        data_max = float(np.max(np.abs(data)))
        workers = auto_workers(self.workers, data.size)
        mallat, plans = transform.decompose(
            data, max_levels=self.max_levels, correction=self.correction,
            workers=workers,
        )
        # Anchor quantisation globally: the floor sits num_planes below
        # the largest coefficient anywhere, so low-magnitude detail
        # groups encode proportionally fewer planes (MGARD's uniform
        # quantisation — this is the main source of size reduction).
        coeff_max = float(np.max(np.abs(mallat)))
        if coeff_max > 0 and np.isfinite(coeff_max):
            global_exp = int(np.floor(np.log2(coeff_max)))
            lsb_exp = global_exp - self.num_planes + 1
        else:
            lsb_exp = None
        qgs, group_planes_blobs = kernels.encode_groups(
            (ring.take(mallat) for ring in transform.group_rings(plans)),
            self.num_planes, lsb_exponent=lsb_exp, workers=workers,
        )
        planesets = [
            bitplane.PlaneSet(qg.count, qg.exponent, qg.num_planes, blobs)
            for qg, blobs in zip(qgs, group_planes_blobs)
        ]
        comps = components.group_planes(
            planesets,
            self.num_components,
            policy=self.policy,
            size_ratio=self.size_ratio,
        )

        # Per-prefix error bounds from the planes each prefix contains.
        bounds = []
        kept_after: list[list[int]] = []
        seen_planes: list[set[int]] = [set() for _ in planesets]
        for c in comps:
            for ref, _ in c.entries:
                seen_planes[ref.group].add(ref.plane)
            kept = [
                self._prefix_len(s, planesets[g].num_planes)
                for g, s in enumerate(seen_planes)
            ]
            kept_after.append(kept)
            bounds.append(
                theoretical_bound(planesets, kept, data_max)
                if data_max > 0
                else 0.0
            )

        obj = RefactoredObject(
            shape=tuple(data.shape),
            dtype=str(data.dtype),
            plans=plans,
            payloads=[],
            errors=[],
            bounds=bounds,
            data_max=data_max,
            correction=self.correction,
            meta={"policy": self.policy, "num_planes": self.num_planes},
        )
        return {
            "data": data,
            "obj": obj,
            "decoded": [qg.decoded() for qg in qgs],
            "planesets": planesets,
            "comps": comps,
            "kept_after": kept_after,
            "workers": workers,
        }

    def _measure_errors(
        self,
        data: np.ndarray,
        obj: RefactoredObject,
        decoded: list[kernels.DecodedGroup],
        kept_after: list[list[int]],
        workers: int,
    ) -> list[float]:
        """Measured per-prefix errors from one dequantisation.

        Every group is dequantised once into a Mallat-layout array — the
        state of the last prefix; each shorter prefix is cut from it
        (:func:`_truncate_to_prefix`) into a slot of a stack of at most
        :data:`_MEASURE_BATCH_ELEMENTS` (and at least one prefix) that
        one inverse transform runs over.  Values are bit-identical to
        ``relative_linf_error(data, reconstruct(obj, upto=j + 1))``.
        """
        full = np.zeros(obj.shape, dtype=np.float64)
        for ring, dg in zip(transform.group_rings(obj.plans), decoded):
            ring.put(full, kernels.dequantise(dg, workers=workers))
        exponents = [dg.exponent for dg in decoded]
        num_planes = [dg.num_planes for dg in decoded]
        # The integer magnitudes are not needed again: free them before
        # the recomposes, where the footprint peaks.
        decoded.clear()
        original = np.ascontiguousarray(data, dtype=np.float64)
        count = len(kept_after)
        per = max(1, _MEASURE_BATCH_ELEMENTS // full.size)
        work = np.empty((min(per, count),) + full.shape)
        errors: list[float] = []
        for lo in range(0, count, per):
            chunk = kept_after[lo:lo + per]
            if lo + 1 == count and chunk[0] == num_planes:
                # A last prefix of one holding every plane has nothing to
                # cut, and no later prefix needs ``full``.
                stack = full[None]
            else:
                stack = work[:len(chunk)]
                for b, kept in enumerate(chunk):
                    _truncate_to_prefix(
                        full, stack[b], obj.plans, exponents, kept
                    )
            # recompose transforms the stack in place; the next chunk
            # rebuilds all of it from ``full``.
            rec = transform.recompose(
                stack, obj.plans, correction=obj.correction,
                workers=workers, overwrite=True,
            )
            errors.extend(
                relative_linf_error(
                    original, r.astype(obj.dtype, copy=False),
                    data_max=obj.data_max,
                )
                for r in rec
            )
        return errors

    @staticmethod
    def _prefix_len(planes_seen: set[int], num_planes: int) -> int:
        """Length of the contiguous MSB prefix within the planes seen."""
        n = 0
        while n < num_planes and n in planes_seen:
            n += 1
        return n

    # -- inverse path ---------------------------------------------------

    def reconstruct(
        self,
        obj: RefactoredObject,
        *,
        upto: int | None = None,
        payloads: list[bytes] | None = None,
    ) -> np.ndarray:
        """Reconstruct an approximation from the first ``upto`` components.

        ``payloads`` overrides the object's own payload list (the
        restoration component passes the subset it managed to gather,
        which must still be a prefix of the progressive order).
        """
        if payloads is None:
            payloads = obj.payloads
        if upto is None:
            upto = len(payloads)
        if not 1 <= upto <= len(payloads):
            raise ValueError(
                f"upto must be in [1, {len(payloads)}], got {upto}"
            )
        size = int(np.prod(obj.shape))
        workers = auto_workers(self.workers, size)
        parsed = [
            entries
            for _, entries in components.components_from_bytes(
                payloads[:upto], workers=workers
            )
        ]
        planesets = components.assemble_planesets(parsed)
        rings = transform.group_rings(obj.plans)
        if len(planesets) > len(rings):
            raise ValueError(
                f"payload names {len(planesets)} coefficient groups, "
                f"layout has {len(rings)}"
            )
        mallat = np.zeros(obj.shape, dtype=np.float64)
        for ring, ps in zip(rings, planesets):
            if ps.count == 0:
                continue
            if ps.count != ring.size:
                raise ValueError(
                    f"coefficient count mismatch: payload has {ps.count}, "
                    f"layout expects {ring.size}"
                )
            if ps.planes:
                ring.put(mallat, bitplane.decode_planes(
                    ps, keep=len(ps.planes), workers=workers
                ))
        out = transform.recompose(
            mallat, obj.plans, correction=obj.correction,
            workers=workers, overwrite=True,
        )
        return out.astype(obj.dtype, copy=False)
