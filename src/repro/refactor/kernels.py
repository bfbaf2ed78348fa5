"""Chunked, thread-parallel kernels behind the refactoring pipeline.

The refactor-side counterpart of :mod:`repro.ec.kernels`.  Every
independent unit of work — coefficient chunks, per-plane blob jobs —
can fan out over :func:`repro.parallel.threads.thread_map` (``zlib``
and the large NumPy ufuncs release the GIL); chunks write disjoint
slices of preallocated outputs, so results do not depend on ``workers``.

* **Blob codec** (:func:`deflate` / :func:`inflate` / :func:`frame` /
  :func:`unframe`): the framed raw-or-zlib plane format.  The *encoder*
  decides which, per blob, from statistics it already holds
  (:func:`bits_compressible`, :func:`signs_compressible`): most blobs
  are stored raw without asking zlib, the few that can compress get
  one level-1 attempt.  The decoder only reads the marker byte.
* **Encode** (:func:`quantise`, :func:`plane_payloads`,
  :func:`encode_groups`): fixed-point quantisation and bitplane
  extraction, ``COEFF_CHUNK`` coefficients at a time.
* **Decode** (:func:`decoded_state`, :func:`dequantise`): inflate the
  kept planes, reassemble the magnitudes chunk by chunk, scale and sign
  them.

Extraction and assembly are the two directions of one transpose of the
(planes x coefficients) bit matrix, done in 8x8 tiles of one ``uint64``
each (:func:`_transpose8`): ``ceil(planes / 8)`` bytes of scratch per
coefficient, never one byte per *bit*.  Conventions:

* Plane ``i`` is bit ``num_planes - 1 - i`` of a magnitude.  Magnitudes
  are shifted to the *top* of a 32/64-bit word, so byte ``g`` of the
  big-endian word holds planes ``8g .. 8g + 7``, MSB first.
* Plane bytes are in ``np.packbits`` order: bit 7 of byte ``b`` is
  coefficient ``8b``.
* A tile is 8 bytes: byte ``r`` is row ``r``, bit 7 is column 0.  A
  plane tile (rows = 8 planes, columns = 8 coefficients) transposes to
  byte ``g`` of eight consecutive words, and back.
* Tiles and words are reinterpreted only through big-endian dtypes
  (``>u8``, ``>u4``), where "byte 0 is the most significant" holds on
  every host; arithmetic runs on native ``uint64`` copies.

Quantised integers, sign order and plane bytes equal those of the
serial per-plane loops kept as references in
``tests/test_refactor_kernels.py``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..parallel.threads import thread_map

__all__ = [
    "COEFF_CHUNK",
    "DecodedGroup",
    "QuantisedGroup",
    "bits_compressible",
    "decoded_state",
    "deflate",
    "dequantise",
    "encode_groups",
    "frame",
    "inflate",
    "plane_payloads",
    "quantise",
    "signs_compressible",
    "unframe",
]

#: Coefficients per extraction/assembly chunk.  Must be a multiple of 8
#: so chunk boundaries land on plane-byte boundaries.  A chunk's working
#: set is its uint64 magnitudes and float64 scratch (8 bytes per
#: coefficient each) plus about one byte per coefficient per 8-plane
#: group of tiles; at 128 Ki that is 1 MiB arrays and 128 KiB tile
#: groups, which stay in a 2-4 MiB L2 while the ~60 NumPy calls a chunk
#: makes remain a negligible share of its run time.
COEFF_CHUNK = 1 << 17

#: Which blobs get a zlib attempt at all.  Measured on the four
#: perfbench fields (hurricane_temperature, scale_pressure, nyx_velocity,
#: nyx_temperature) at 128^3 float64, 22 planes, where "deflate every
#: blob at level 6, keep it if smaller" made 260-350 attempts per
#: refactor (0.12-0.18 s, 45-60 % of a bounds-only refactor) and threw
#: 242-319 of them away:
#:
#: * A magnitude plane in which at least ``RAW_SIGNIFICANT_SHARE`` of the
#:   coefficients were significant before it is refinement noise for
#:   them; all such planes of an object together gave level 6 at most
#:   0.08 % of its stored bytes.
#: * The signs of newly significant coefficients are coin flips — all
#:   sign blobs of an object together gave level 6 nothing — unless the
#:   detail is one-signed (a convex ramp) or its sign changes rarely
#:   along the array (a noise-free analytic field, where level 6 took
#:   423-byte sign blobs to 25).  They are attempted only when the rarer
#:   sign, or the adjacent pairs that differ, are below
#:   ``PREDICTABLE_SIGN_SHARE`` of the blob; on the perfbench fields 42 %
#:   or more of the pairs differ, on the analytic field at most 12 %.
#: * zlib's shortest stream for a non-empty input is 9-11 bytes, so a
#:   payload of ``MAX_TINY_BYTES`` or fewer can never come back smaller.
#: * The 15-31 blobs that do compress cost 0.060-0.098 s at level 6 and
#:   0.027-0.038 s at ``ZLIB_LEVEL`` 1, for +0.3-0.6 % of stored bytes.
RAW_SIGNIFICANT_SHARE = 0.5
PREDICTABLE_SIGN_SHARE = 0.25
MAX_TINY_BYTES = 11
ZLIB_LEVEL = 1


# -- blob codec ---------------------------------------------------------


def bits_compressible(significant: int, count: int) -> bool:
    """Whether a magnitude plane is worth a zlib attempt.

    ``significant`` of the group's ``count`` coefficients have their
    leading 1-bit in an earlier plane (``QuantisedGroup.sign_offsets[i]``
    for plane ``i``), so their bits in this one are refinement noise.
    """
    return significant < RAW_SIGNIFICANT_SHARE * count


def signs_compressible(signs: np.ndarray) -> bool:
    """Whether the sign bits of one plane's newly significant
    coefficients are worth a zlib attempt: one sign is rare, or the sign
    rarely changes from one coefficient to the next."""
    negatives = np.count_nonzero(signs)
    flips = np.count_nonzero(signs[1:] != signs[:-1])
    rarest = min(negatives, signs.size - negatives, flips)
    return rarest < PREDICTABLE_SIGN_SHARE * signs.size


def deflate(payload: bytes, attempt: bool = True) -> bytes:
    """Raw storage, or zlib where ``attempt`` says it can pay.

    A 1-byte marker selects the representation.  The caller predicts
    from the plane's statistics whether compressing is worth trying
    (:func:`bits_compressible`, :func:`signs_compressible`); an attempt
    that does not shrink the payload still falls back to raw, so a blob
    is never larger than its payload plus the marker.
    """
    if attempt and len(payload) > MAX_TINY_BYTES:
        z = zlib.compress(payload, ZLIB_LEVEL)
        if len(z) < len(payload):
            return b"\x01" + z
    return b"\x00" + payload


def inflate(blob: bytes) -> bytes:
    marker = blob[:1]
    if marker == b"\x00":
        return blob[1:]
    if marker == b"\x01":
        return zlib.decompress(blob[1:])
    raise ValueError(f"plane blob has unknown codec marker {marker!r}")


def frame(bits_blob: bytes, sign_blob: bytes) -> bytes:
    return struct.pack("<I", len(bits_blob)) + bits_blob + sign_blob


def unframe(blob: bytes) -> tuple[bytes, bytes]:
    (blen,) = struct.unpack_from("<I", blob, 0)
    return blob[4 : 4 + blen], blob[4 + blen :]


# -- encode -------------------------------------------------------------


@dataclass
class QuantisedGroup:
    """One coefficient group after quantisation and bitplane extraction.

    ``packed`` is plane-major: row ``i`` holds the packbits of plane
    ``i``'s magnitude bits over all coefficients (the byte string the
    plane blob deflates).  A coefficient's sign bit ships in the plane
    of its leading 1-bit.
    """

    count: int
    exponent: int
    num_planes: int
    packed: np.ndarray  # (num_planes, ceil(count / 8)) uint8
    sign: np.ndarray  # (count,) bool
    q: np.ndarray  # (count,) uint64 quantised magnitudes
    # Each COEFF_CHUNK span's signs in stable order by leading plane:
    # chunk c's coefficients with lead == i, in array order, are
    # lead_signs[sign_spans[c, i]:sign_spans[c, i + 1]].  Joined over the
    # chunks these runs are plane i's sign bits (:func:`_plane_signs`).
    # sign_offsets[i] is how many coefficients lead before plane i.
    lead_signs: np.ndarray  # (count,) bool
    sign_spans: np.ndarray  # (chunks, num_planes + 2) int64
    sign_offsets: np.ndarray  # (num_planes + 2,) int64

    def decoded(self) -> "DecodedGroup":
        """View this group as a fully-decoded state.

        The encoder already holds the quantised magnitudes, so
        ``measure_errors`` needs no plane decode at all.  Signs of
        coefficients that quantised to zero are dropped (the decoder can
        never learn them), making :func:`dequantise` of the result
        bit-identical to decoding the serialised planes.
        """
        return DecodedGroup(
            self.count, self.exponent, self.num_planes,
            self.q, self.sign & (self.q != 0),
        )


def _word_dtype(num_planes: int) -> tuple[str, int]:
    """Big-endian word view used for bit extraction/assembly."""
    return (">u4", 32) if num_planes <= 32 else (">u8", 64)


_SWAPS = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def _transpose8(tiles: np.ndarray) -> np.ndarray:
    """Transpose every 8x8 bit matrix of a ``(..., 8)`` uint8 array.

    Each tile becomes one ``uint64`` (row 0 in the top byte); three
    masked swaps exchange its off-diagonal 1x1, 2x2 and 4x4 blocks.
    """
    x = tiles.view(">u8").astype(np.uint64)
    t = np.empty_like(x)
    for shift, mask in _SWAPS:
        # t = (x ^ (x >> shift)) & mask;  x ^= t ^ (t << shift)
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x.astype(">u8").view(np.uint8)


def _extract(q: np.ndarray, num_planes: int, packed: np.ndarray) -> None:
    """Write the packbits of plane ``i`` of ``q`` into ``packed[i]``."""
    count, nbytes = q.size, packed.shape[1]
    dt, width = _word_dtype(num_planes)
    groups = (num_planes + 7) // 8
    word_bytes = (
        (q << np.uint64(width - num_planes))
        .astype(dt).view(np.uint8).reshape(count, width // 8)
    )
    coeff_tiles = np.zeros((groups, nbytes * 8), dtype=np.uint8)
    for g in range(groups):
        coeff_tiles[g, :count] = word_bytes[:, g]
    plane_tiles = _transpose8(coeff_tiles.reshape(groups, nbytes, 8))
    for i in range(num_planes):
        packed[i] = plane_tiles[i >> 3, :, i & 7]


def _assemble(
    rows: list[np.ndarray], count: int, num_planes: int
) -> np.ndarray:
    """Inverse of :func:`_extract`; planes past the last row read as 0."""
    dt, width = _word_dtype(num_planes)
    groups, nbytes = (len(rows) + 7) // 8, (count + 7) // 8
    plane_tiles = np.zeros((groups, nbytes, 8), dtype=np.uint8)
    for i, row in enumerate(rows):
        plane_tiles[i >> 3, :, i & 7] = row
    coeff_tiles = _transpose8(plane_tiles).reshape(groups, nbytes * 8)
    word_bytes = np.zeros((count, width // 8), dtype=np.uint8)
    for g in range(groups):
        word_bytes[:, g] = coeff_tiles[g, :count]
    q = word_bytes.view(dt).reshape(count).astype(np.uint64)
    q >>= np.uint64(width - num_planes)
    return q


def _leading_plane(q: np.ndarray, num_planes: int) -> np.ndarray:
    """Index of each magnitude's leading set plane (num_planes if zero).

    The bit length comes from ``frexp`` (``frexp(0) == (0, 0)`` maps
    zeros to the sentinel for free).
    """
    if num_planes > 53:
        # Wider than a float64 mantissa: clear every bit that has a
        # set bit directly above it.  The leading bit survives, and with
        # no two adjacent ones left the conversion cannot round up into
        # the next power of two.
        q = q & ~(q >> np.uint64(1))
    bit_length = np.frexp(q.astype(np.float64))[1]
    return (num_planes - bit_length).astype(np.int16)


def _empty_group(count: int, exponent: int) -> QuantisedGroup:
    """A group with no planes: every coefficient quantises to zero."""
    return QuantisedGroup(
        count, exponent, 0,
        np.empty((0, (count + 7) // 8), dtype=np.uint8),
        np.zeros(count, dtype=bool), np.zeros(count, dtype=np.uint64),
        np.zeros(count, dtype=bool),
        *_sign_layout(np.array([[count]]), [0]),
    )


def quantise(
    coeffs: np.ndarray,
    num_planes: int,
    *,
    lsb_exponent: int | None = None,
    workers: int | None = None,
) -> QuantisedGroup:
    """Quantise a flat coefficient array and extract its bitplanes.

    The work is chunked (:data:`COEFF_CHUNK`) and, with ``workers > 1``,
    thread-parallel.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64).reshape(-1)
    count = coeffs.size
    if count == 0:
        return _empty_group(count, 0)
    if not (1 <= num_planes <= 60):
        raise ValueError(f"num_planes must be in [1, 60], got {num_planes}")
    amax = float(np.max(np.abs(coeffs)))
    if amax == 0.0 or not np.isfinite(amax):
        exponent = 0
    else:
        exponent = int(np.floor(np.log2(amax)))
    if lsb_exponent is not None:
        # Anchored mode: plane 0 weight stays at the group exponent, but
        # the plane count shrinks with the group's dynamic range.
        num_planes = exponent - lsb_exponent + 1
        if num_planes > 60:
            raise ValueError(
                f"anchored plane count {num_planes} exceeds 60; "
                "raise lsb_exponent"
            )
    # Keep the LSB weight a normal double: for data living near the
    # subnormal floor (exponent close to -1022) fewer planes are
    # representable, so the plane count shrinks accordingly.
    num_planes = min(num_planes, exponent + 1022)
    if num_planes < 1:
        # Every coefficient quantises to zero under the floor.
        return _empty_group(count, exponent)
    sign = coeffs < 0
    # Fixed-point magnitudes: LSB weight 2**(exponent - num_planes + 1).
    lsb = 2.0 ** (exponent - num_planes + 1)
    # round() can push the top value to 2**num_planes; clamp into range.
    maxq = np.uint64(2**num_planes - 1)
    q = np.empty(count, dtype=np.uint64)
    packed = np.empty((num_planes, (count + 7) // 8), dtype=np.uint8)
    spans = _chunk_spans(count, COEFF_CHUNK)

    def _chunk(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = span
        # Quantising inside the chunk keeps the abs/divide/round
        # scratch cache-resident instead of three full-array temps.
        qc = np.round(np.abs(coeffs[lo:hi]) / lsb).astype(np.uint64)
        np.minimum(qc, maxq, out=qc)
        # rapidslint: disable-next=RPD103 -- chunks write disjoint spans of q, vouched via allow_shared_writes
        q[lo:hi] = qc
        # Chunk extents are byte-aligned, so the per-chunk plane bytes
        # concatenate to exactly the whole-array packbits.
        _extract(qc, num_planes, packed[:, lo // 8 : (hi + 7) // 8])
        order, counts = _lead_order(_leading_plane(qc, num_planes), num_planes)
        return sign[lo:hi][order], counts

    lead_signs, counts = zip(*thread_map(
        _chunk, spans, workers=workers, allow_shared_writes=("packed", "q"),
    ))
    return QuantisedGroup(
        count, exponent, num_planes, packed, sign, q,
        np.concatenate(lead_signs),
        *_sign_layout(np.array(counts), [lo for lo, _ in spans]),
    )


def _chunk_spans(count: int, chunk: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]


def _lead_order(
    lead: np.ndarray, planes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of one chunk's coefficients by leading plane, and how
    many lead in each of ``planes + 1`` planes (the last: none kept)."""
    # At most 61 distinct keys: one-byte keys take one radix pass, not two.
    order = np.argsort(lead.astype(np.uint8), kind="stable")
    return order, np.bincount(lead, minlength=planes + 1)


def _sign_layout(
    counts: np.ndarray, starts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``sign_spans`` and ``sign_offsets`` from per-chunk lead counts.

    ``counts[c, i]`` coefficients of the chunk starting at ``starts[c]``
    lead in plane ``i``.
    """
    spans = np.empty((counts.shape[0], counts.shape[1] + 1), dtype=np.int64)
    spans[:, 0] = starts
    np.cumsum(counts, axis=1, out=spans[:, 1:])
    spans[:, 1:] += spans[:, :1]
    offsets = np.zeros(counts.shape[1] + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=offsets[1:])
    return spans, offsets


def _plane_signs(qg: QuantisedGroup, i: int) -> np.ndarray:
    """Plane ``i``'s sign bits: every chunk's run for the plane, joined.

    Chunks are consecutive spans of the array, so the join is in array
    order — the order of one stable sort of the whole group by lead.
    """
    return np.concatenate([
        qg.lead_signs[lo:hi] for lo, hi in qg.sign_spans[:, i : i + 2].tolist()
    ])


def _plane_blob_job(job: tuple[QuantisedGroup, int]) -> bytes:
    """Frame one ``(group, plane)``: magnitude bits + new signs, each
    raw or zlib'd as the plane's own statistics predict.

    ``sign_offsets[i]`` is the number of coefficients that became
    significant before plane ``i``, so the decision costs two counts
    over the new signs and depends on nothing but the group — never on
    ``workers`` or on which engine runs the job.

    Module-level so executors of any kind — thread pools today, process
    pools in the streaming pipeline — can receive it (rapidslint RPD112
    rejects non-picklable callables at process-pool submission sites).
    """
    qg, i = job
    lo = int(qg.sign_offsets[i])
    new_signs = _plane_signs(qg, i)
    return frame(
        deflate(qg.packed[i].tobytes(), bits_compressible(lo, qg.count)),
        deflate(
            np.packbits(new_signs).tobytes(), signs_compressible(new_signs)
        ),
    )


def plane_payloads(qg: QuantisedGroup) -> list[bytes]:
    """Encode and frame every plane of one group (threaded per plane)."""
    return thread_map(_plane_blob_job, [(qg, i) for i in range(qg.num_planes)])


def encode_groups(
    groups: Iterable[np.ndarray],
    num_planes: int,
    *,
    lsb_exponent: int | None = None,
    workers: int | None = None,
) -> tuple[list[QuantisedGroup], list[list[bytes]]]:
    """Quantise and encode every coefficient group of a Mallat array.

    Stage 1 quantises group by group (each internally chunk-threaded —
    the finest detail ring holds ~7/8 of all coefficients, so threading
    *within* the group is what balances the work).  Stage 2 flattens
    every ``(group, plane)`` blob job into one job list so the thread
    pool stays busy across group boundaries.
    """
    qgs = [
        quantise(coeffs, num_planes, lsb_exponent=lsb_exponent,
                 workers=workers)
        for coeffs in groups
    ]
    jobs = [(g, i) for g, qg in enumerate(qgs) for i in range(qg.num_planes)]
    blobs = thread_map(
        _plane_blob_job,
        [(qgs[g], i) for g, i in jobs],
        workers=workers,
    )
    planes: list[list[bytes]] = [[] for _ in qgs]
    for (g, _i), blob in zip(jobs, blobs):
        planes[g].append(blob)
    return qgs, planes


# -- decode -------------------------------------------------------------


@dataclass
class DecodedGroup:
    """Quantised magnitudes of one group decoded from a plane prefix.

    ``q`` holds the integer magnitudes assembled from the planes that
    were kept (the rest read as zero bits); ``sign`` is True for
    negative coefficients whose leading 1-bit, and therefore embedded
    sign, appeared within them.
    """

    count: int
    exponent: int
    num_planes: int
    q: np.ndarray  # (count,) uint64
    sign: np.ndarray  # (count,) bool


def decoded_state(
    count: int,
    exponent: int,
    num_planes: int,
    planes: list[bytes],
    keep: int,
    *,
    workers: int | None = None,
) -> DecodedGroup:
    """Decode the first ``keep`` planes into quantised magnitudes.

    Bit-compatible with the serial plane-by-plane loop: identical
    integers in ``q`` and the identical sign-assignment order (plane by
    plane, coefficients in array order within each plane).
    """
    q = np.zeros(count, dtype=np.uint64)
    if count == 0 or keep == 0:
        return DecodedGroup(
            count, exponent, num_planes, q, np.zeros(count, dtype=bool)
        )
    opened = thread_map(
        _open_plane, planes[:keep], workers=workers
    )
    rows = [np.frombuffer(braw, dtype=np.uint8) for braw, _sraw in opened]
    if any(row.size != (count + 7) // 8 for row in rows):
        raise ValueError(f"plane blob does not hold {count} magnitude bits")
    spans = _chunk_spans(count, COEFF_CHUNK)

    def _chunk(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = span
        qc = _assemble(
            [r[lo // 8 : (hi + 7) // 8] for r in rows], hi - lo, num_planes
        )
        # rapidslint: disable-next=RPD103 -- chunks write disjoint spans of q, vouched via allow_shared_writes
        q[lo:hi] = qc
        # Only the first ``keep`` planes are populated, so a non-zero
        # magnitude leads below ``keep``; zeros get the sentinel ``keep``.
        lead = np.minimum(_leading_plane(qc, num_planes), keep)
        return _lead_order(lead, keep)

    orders, counts = zip(*thread_map(
        _chunk, spans, workers=workers, allow_shared_writes=("q",),
    ))
    return DecodedGroup(count, exponent, num_planes, q, _place_signs(
        spans, orders, np.array(counts), [sraw for _braw, sraw in opened],
        workers,
    ))


def _place_signs(
    spans: list[tuple[int, int]],
    orders: tuple[np.ndarray, ...],
    counts: np.ndarray,
    sign_blobs: list[bytes],
    workers: int | None,
) -> np.ndarray:
    """The sign flags of a group whose first ``len(sign_blobs)`` planes
    were kept: True where a coefficient's leading 1-bit, and so its
    embedded sign, came in them and the sign is negative.

    Plane ``i`` carries the signs of the coefficients leading in it, in
    array order: chunk 0's run, then chunk 1's, ...  So chunk ``c``'s
    run starts after the earlier chunks' ``counts[:c, i]`` bits, and the
    chunk's runs over all planes, joined, are its signs in its own
    stable lead order ``orders[c]``.
    """
    keep = len(sign_blobs)
    totals = counts.sum(axis=0).tolist()
    bits = []
    for i, sraw in enumerate(sign_blobs):
        # unpackbits(count=) zero-pads: a short blob would decode as
        # all-positive coefficients instead of failing.
        if totals[i] and len(sraw) != (totals[i] + 7) // 8:
            raise ValueError(
                f"sign blob of plane {i} does not hold {totals[i]} sign bits"
            )
        bits.append(np.unpackbits(
            np.frombuffer(sraw, dtype=np.uint8), count=totals[i]
        ).view(bool))
    firsts = np.zeros_like(counts)
    np.cumsum(counts[:-1], axis=0, out=firsts[1:])

    def _chunk(job: tuple) -> np.ndarray:
        (lo, hi), order, chunk_firsts, chunk_counts = job
        runs = np.concatenate([
            bits[i][first : first + n]
            for i, (first, n) in enumerate(zip(chunk_firsts, chunk_counts))
        ])
        sign = np.zeros(hi - lo, dtype=bool)
        sign[order[: runs.size]] = runs
        return sign

    return np.concatenate(thread_map(
        _chunk,
        zip(spans, orders, firsts[:, :keep].tolist(),
            counts[:, :keep].tolist()),
        workers=workers,
    ))


def _open_plane(blob: bytes) -> tuple[bytes, bytes]:
    """Inflate one framed plane blob to (magnitude bytes, sign bytes)."""
    bits_blob, sign_blob = unframe(blob)
    return inflate(bits_blob), inflate(sign_blob)


def dequantise(
    dg: DecodedGroup, *, workers: int | None = None
) -> np.ndarray:
    """Signed coefficient values of a decoded group, ``COEFF_CHUNK``
    coefficients at a time (thread-parallel with ``workers > 1``)."""
    if dg.count == 0 or dg.num_planes == 0:
        return np.zeros(dg.count, dtype=np.float64)
    scale = 2.0 ** (dg.exponent - dg.num_planes + 1)
    out = np.empty(dg.count, dtype=np.float64)
    bits = out.view(np.uint64)

    def _chunk(span: tuple[int, int]) -> None:
        lo, hi = span
        # q < 2**60 reads the same through an int64 view, whose
        # conversion is the vectorised one; the scale is a power of two.
        np.multiply(dg.q[lo:hi].view(np.int64), scale, out=out[lo:hi])
        # Every value is >= +0.0, so negating it sets bit 63 and changes
        # nothing else (0.0 becomes -0.0).  OR-ing the bit in as an
        # integer is ~4x faster than a masked np.negative(where=sign).
        sign = np.left_shift(dg.sign[lo:hi], np.uint64(63), dtype=np.uint64)
        np.bitwise_or(bits[lo:hi], sign, out=bits[lo:hi])

    thread_map(
        _chunk, _chunk_spans(dg.count, COEFF_CHUNK), workers=workers,
        allow_shared_writes=("out", "bits"),
    )
    return out
