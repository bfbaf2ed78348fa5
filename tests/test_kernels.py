"""Equivalence and behaviour tests for the planned GF(256) EC kernels.

The planned/chunked kernels in ``repro.ec.kernels`` must be *bit-exact*
with the reference ``matrix.matmul`` path for every code, payload size,
and erasure pattern — fragments written by one implementation must
decode under the other.  These are property-style sweeps over random
``(k, m)`` configurations, degenerate payload sizes, all k-subsets of a
small code, and the thread-parallel paths.
"""

import itertools

import numpy as np
import pytest

from repro.ec import (
    ErasureCodec,
    RSCode,
    kernels,
    plan_for,
    planned_matmul,
)
from repro.ec import gf256, matrix
from repro.ec.reed_solomon import pad_to_fragments


def reference_encode(code: RSCode, payload: bytes) -> np.ndarray:
    """The seed encode path: full generator matmul via matrix.matmul."""
    shards = pad_to_fragments(payload, code.k)
    return matrix.matmul(code.generator, shards)


def reference_decode(code: RSCode, fragments: dict) -> np.ndarray:
    """The seed decode path: per-call invert + stack + matmul."""
    idx = sorted(fragments)[: code.k]
    rows = np.stack(
        [np.frombuffer(memoryview(fragments[i]), dtype=np.uint8) for i in idx]
    )
    if idx == list(range(code.k)):
        return rows
    return matrix.solve(code.generator[idx], rows)


# -- planned_matmul vs matrix.matmul ----------------------------------


@pytest.mark.parametrize("shape", [(1, 1, 1), (4, 8, 1000), (3, 5, 0),
                                   (2, 3, 65537), (12, 16, 200001)])
def test_planned_matmul_matches_reference(shape):
    r, k, length = shape
    rng = np.random.default_rng(hash(shape) % (2**32))
    a = rng.integers(0, 256, size=(r, k), dtype=np.uint8)
    # Force the special-cased coefficients onto the hot path too.
    a.flat[:: max(1, a.size // 4)] = 0
    a.flat[1:: max(1, a.size // 3)] = 1
    b = rng.integers(0, 256, size=(k, length), dtype=np.uint8)
    assert np.array_equal(planned_matmul(a, b), matrix.matmul(a, b))


def test_planned_matmul_accepts_row_sequences():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    rows = [rng.integers(0, 256, size=999, dtype=np.uint8) for _ in range(4)]
    assert np.array_equal(plan_for(a).apply(rows), matrix.matmul(a, np.stack(rows)))


def test_plan_cache_interns_by_coefficients():
    coeffs = np.array([[2, 3], [5, 7]], dtype=np.uint8)
    assert plan_for(coeffs) is plan_for(coeffs.copy())


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_for(np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        kernels.EncodePlan(np.zeros((2, 2), dtype=np.uint8), chunk=7)
    plan = plan_for(np.ones((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        plan.apply([np.zeros(4, dtype=np.uint8)] * 2)  # wrong row count
    with pytest.raises(ValueError):
        plan.apply([np.zeros(4, dtype=np.uint8),
                    np.zeros(4, dtype=np.uint8),
                    np.zeros(5, dtype=np.uint8)])  # unequal rows


def test_pair_mul_table_matches_scalar_products():
    rng = np.random.default_rng(9)
    for c in [0, 1, 2, 137, 255]:
        table = gf256.pair_mul_table(c)
        vals = rng.integers(0, 1 << 16, size=64, dtype=np.uint16)
        lo, hi = vals & 0xFF, vals >> 8
        expected = gf256.mul(np.uint8(c), lo.astype(np.uint8)).astype(
            np.uint16
        ) | (gf256.mul(np.uint8(c), hi.astype(np.uint8)).astype(np.uint16) << 8)
        assert np.array_equal(table[vals], expected)


# -- RSCode: planned encode/decode vs the seed path -------------------


@pytest.mark.parametrize("km", [(2, 1), (3, 2), (5, 3), (8, 4), (11, 6), (16, 8)])
def test_encode_matches_seed_path_across_sizes(km):
    k, m = km
    code = RSCode(k, m)
    rng = np.random.default_rng(k * 100 + m)
    for size in [0, 1, max(k - 1, 1), 3 * (1 << 20) + 13]:
        payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        frags = code.encode(payload)
        ref = reference_encode(code, payload)
        assert np.array_equal(np.stack([np.asarray(f) for f in frags]), ref)
        # Any-k decode (parity-heavy selection) must invert it exactly.
        sel = {i: frags[i] for i in range(m, k + m)}
        assert code.decode(sel) == payload
        assert np.array_equal(code.decode_shards(sel), reference_decode(code, sel))


def test_decode_all_k_subsets_small_code():
    code = RSCode(3, 2)
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 256, size=4097, dtype=np.uint8).tobytes()
    frags = code.encode(payload)
    for subset in itertools.combinations(range(code.n), code.k):
        sel = {i: frags[i] for i in subset}
        assert code.decode(sel) == payload
        assert np.array_equal(
            code.decode_shards(sel), reference_decode(code, sel)
        )


def test_encode_matches_full_generator_matmul():
    code = RSCode(6, 3)
    frags = code.encode(np.random.default_rng(11).bytes(60_042))
    assert np.array_equal(
        np.stack(frags), matrix.matmul(code.generator, np.stack(frags[:6]))
    )


def test_reconstruct_fragment_matches_seed_for_every_target():
    code = RSCode(4, 3)
    rng = np.random.default_rng(12)
    payload = rng.integers(0, 256, size=50_000, dtype=np.uint8).tobytes()
    frags = code.encode(payload)
    survivors = {i: frags[i] for i in [1, 3, 5, 6]}
    for target in range(code.n):
        rebuilt = code.reconstruct_fragment(survivors, target)
        assert np.array_equal(rebuilt, np.asarray(frags[target])), target


def test_decode_unequal_lengths_names_offenders():
    code = RSCode(3, 2)
    frags = code.encode(b"some payload that is long enough to split")
    bad = {0: frags[0], 1: np.asarray(frags[1])[:-3], 4: frags[4]}
    with pytest.raises(ValueError, match=r"fragment 1"):
        code.decode_shards(bad)
    # The majority length wins even when the first fragment is the odd one.
    bad2 = {0: np.asarray(frags[0])[:-1], 1: frags[1], 4: frags[4]}
    with pytest.raises(ValueError, match=r"fragment 0"):
        code.decode_shards(bad2)


def test_decode_plan_cache_reused_and_bounded():
    code = RSCode(3, 2)
    payload = bytes(range(256)) * 10
    frags = code.encode(payload)
    sel = {0: frags[0], 2: frags[2], 4: frags[4]}
    code.decode(sel)
    plan = code._decode_plans[(0, 2, 4)]
    code.decode(sel)
    assert code._decode_plans[(0, 2, 4)] is plan


# -- codec-level parallel equivalence ---------------------------------


def test_encoded_level_blobs_cached_and_consistent():
    codec = ErasureCodec(6)
    enc = codec.encode_level(b"x" * 1000, 2)
    blobs = enc.fragment_blobs()
    assert blobs is enc.fragment_blobs()
    assert blobs == [np.asarray(f).tobytes() for f in enc.fragments]


def test_random_codes_round_trip_property():
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = int(rng.integers(2, 17))
        m = int(rng.integers(1, 9))
        code = RSCode(k, m)
        size = int(rng.integers(0, 5000))
        payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        frags = code.encode(payload)
        keep = sorted(rng.choice(code.n, size=k, replace=False).tolist())
        sel = {i: frags[i] for i in keep}
        assert code.decode(sel) == payload, (k, m, size, keep)
        assert np.array_equal(
            np.stack([np.asarray(f) for f in frags]),
            reference_encode(code, payload),
        )
