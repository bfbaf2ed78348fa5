"""Bitplane encoding of multilevel coefficients.

pMGARD achieves fine-grained error control by splitting the multilevel
coefficients of every decomposition level into *bitplanes* — plane ``b``
holds bit ``b`` of the magnitude of every coefficient, quantised against
the level's maximum magnitude.  More-significant planes carry more of the
reconstruction accuracy, which is what lets the refactorer reorder planes
across levels into progressive components.

Signs are *embedded*: a coefficient's sign bit ships inside the plane
where its leading 1-bit appears (the standard embedded-coding treatment,
also used by SPIHT/zfp-style coders).  This matters for progressiveness:
a fine-detail group with millions of coefficients must not pay its whole
sign plane before its first magnitude bit becomes useful.

Encoding pipeline per coefficient group::

    float64 coeffs -> fixed-point magnitudes (uint64)
                   -> per-plane: packbits(magnitude bits) + packbits(signs
                      of newly-significant coeffs), each stored raw or
                      zlib'd behind a one-byte marker (the top planes of
                      a group are mostly zeros and compress hard; the
                      refinement planes and nearly all sign bits are
                      noise, and the encoder knows which is which
                      without asking zlib)

Decoding tolerates an arbitrary *prefix* of the planes (always the most
significant first); missing low planes read as zero magnitude bits, which
bounds the dequantisation error by the first missing plane's weight.

The heavy lifting — chunked bit extraction, the per-plane raw-or-zlib
decision and blob jobs, the vectorised plane reassembly — lives in
:mod:`repro.refactor.kernels`, which can fan the work out over threads
(``workers=``).  The blob format is unchanged from the original serial
encoder: blobs written by any earlier encoder decode bit-identically,
and both directions produce the original's bits and signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

__all__ = ["PlaneSet", "encode_planes", "decode_planes"]

#: Default number of magnitude bitplanes retained.
DEFAULT_PLANES = 32


@dataclass
class PlaneSet:
    """The encoded bitplanes of one coefficient group.

    Attributes
    ----------
    count:
        Number of coefficients in the group.
    exponent:
        Power-of-two scale: plane 0 (the MSB) has weight ``2**exponent``.
    num_planes:
        Total magnitude planes encoded.
    planes:
        Framed blobs, MSB first.  Each blob holds the packbits of the
        plane's magnitude bits followed by the packbits of the signs of
        coefficients whose leading 1-bit lies in this plane, each raw or
        zlib'd as its marker byte says.
    """

    count: int
    exponent: int
    num_planes: int
    planes: list[bytes] = field(default_factory=list)


def encode_planes(
    coeffs: np.ndarray,
    num_planes: int = DEFAULT_PLANES,
) -> PlaneSet:
    """Encode a flat coefficient array into embedded-sign bitplanes.

    The quantisation step is chosen from the group's maximum magnitude
    so that the most significant retained plane is plane 0 (the
    refactorer instead anchors every group at one global floor through
    :func:`~repro.refactor.kernels.quantise`'s ``lsb_exponent``).  The
    absolute quantisation error of every coefficient is bounded by the
    LSB weight.
    """
    qg = kernels.quantise(coeffs, num_planes)
    planes = kernels.plane_payloads(qg)
    return PlaneSet(qg.count, qg.exponent, qg.num_planes, planes)


def decode_planes(
    ps: PlaneSet,
    keep: int | None = None,
    *,
    workers: int | None = None,
) -> np.ndarray:
    """Reconstruct coefficients from the first ``keep`` magnitude planes.

    ``keep=None`` uses every *present* plane (supporting partially
    assembled PlaneSets whose plane list is a prefix).  Signs of
    coefficients that never became significant within the kept prefix
    are unknown — their magnitude is zero anyway.
    """
    if ps.count == 0:
        return np.zeros(0, dtype=np.float64)
    if keep is None:
        keep = len(ps.planes)
    if not 0 <= keep <= ps.num_planes or keep > len(ps.planes):
        limit = min(ps.num_planes, len(ps.planes))
        raise ValueError(f"keep must be in [0, {limit}], got {keep}")
    dg = kernels.decoded_state(
        ps.count, ps.exponent, ps.num_planes, ps.planes, keep,
        workers=workers,
    )
    return kernels.dequantise(dg, workers=workers)
