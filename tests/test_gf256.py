"""Unit and property tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec import gf256

bytes_st = st.integers(min_value=0, max_value=255)
nonzero_st = st.integers(min_value=1, max_value=255)


def test_exp_log_roundtrip():
    for x in range(1, 256):
        assert gf256.EXP_TABLE[gf256.LOG_TABLE[x]] == x


def test_exp_table_doubled():
    assert np.array_equal(gf256.EXP_TABLE[:255], gf256.EXP_TABLE[255:510])


def test_mul_by_zero_and_one():
    xs = np.arange(256, dtype=np.uint8)
    assert np.all(gf256.mul(xs, np.uint8(0)) == 0)
    assert np.array_equal(gf256.mul(xs, np.uint8(1)), xs)


def test_mul_matches_reference():
    """Cross-check table multiplication against carry-less reference."""

    def ref_mul(a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a & 0x100:
                a ^= gf256.PRIMITIVE_POLY
            b >>= 1
        return r

    rng = np.random.default_rng(0)
    for _ in range(500):
        a = int(rng.integers(0, 256))
        b = int(rng.integers(0, 256))
        assert int(gf256.mul(a, b)) == ref_mul(a, b)


@given(bytes_st, bytes_st)
def test_mul_commutative(a, b):
    assert gf256.mul(a, b) == gf256.mul(b, a)


@given(bytes_st, bytes_st, bytes_st)
def test_mul_associative(a, b, c):
    assert gf256.mul(gf256.mul(a, b), c) == gf256.mul(a, gf256.mul(b, c))


@given(bytes_st, bytes_st, bytes_st)
def test_distributive(a, b, c):
    lhs = gf256.mul(a, gf256.add(b, c))
    rhs = gf256.add(gf256.mul(a, b), gf256.mul(a, c))
    assert lhs == rhs


@given(nonzero_st)
def test_inverse(a):
    assert gf256.mul(a, gf256.inv(a)) == 1


@given(bytes_st, nonzero_st)
def test_div_is_mul_by_inverse(a, b):
    assert gf256.div(a, b) == gf256.mul(a, gf256.inv(b))


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf256.div(5, 0)
    with pytest.raises(ZeroDivisionError):
        gf256.div(np.arange(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8))


def test_add_is_self_inverse():
    xs = np.arange(256, dtype=np.uint8)
    assert np.all(gf256.add(xs, xs) == 0)


@given(nonzero_st, st.integers(min_value=0, max_value=600))
def test_pow_matches_repeated_mul(a, n):
    expected = np.uint8(1)
    for _ in range(n % 255):
        expected = gf256.mul(expected, a)
    # a^n == a^(n mod 255) for nonzero a (multiplicative group order
    # 255): a power is one antilog lookup of n * log(a).
    power = gf256.EXP_TABLE[(int(gf256.LOG_TABLE[a]) * n) % 255]
    assert power == expected


def test_mul_table_row():
    for c in (0, 1, 2, 37, 255):
        row = gf256.full_mul_table()[c]
        xs = np.arange(256, dtype=np.uint8)
        assert np.array_equal(row, gf256.mul(np.uint8(c), xs))


def test_full_mul_table_symmetric():
    t = gf256.full_mul_table()
    assert t.shape == (256, 256)
    assert np.array_equal(t, t.T)


def test_array_broadcast_mul():
    a = np.arange(16, dtype=np.uint8).reshape(4, 4)
    b = np.uint8(7)
    out = gf256.mul(a, b)
    assert out.shape == (4, 4)
    assert out[0, 0] == 0
    assert out[0, 1] == gf256.mul(1, 7)


def test_generator_is_primitive():
    """The generator must produce all 255 nonzero elements."""
    seen = set()
    x = np.uint8(1)
    for _ in range(255):
        seen.add(int(x))
        x = gf256.mul(x, 3)
    assert len(seen) == 255
