"""Tests for bitplane encoding/decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.refactor.bitplane import decode_planes, encode_planes


def test_roundtrip_full_precision():
    rng = np.random.default_rng(0)
    c = rng.normal(size=1000)
    ps = encode_planes(c, num_planes=40)
    back = decode_planes(ps)
    # error bounded by the quantisation LSB
    lsb = 2.0 ** (ps.exponent - ps.num_planes + 1)
    assert np.max(np.abs(back - c)) <= lsb


def test_progressive_error_decreases():
    rng = np.random.default_rng(1)
    c = rng.normal(size=500)
    ps = encode_planes(c, num_planes=32)
    errs = [np.max(np.abs(decode_planes(ps, keep=k) - c)) for k in range(0, 33, 4)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] / 1e6


def test_keep_zero_gives_zeros():
    c = np.array([1.0, -2.0, 3.0])
    ps = encode_planes(c)
    assert np.all(decode_planes(ps, keep=0) == 0)


def test_error_bound_per_prefix():
    """Keeping k planes bounds the error by the first missing plane weight."""
    rng = np.random.default_rng(2)
    c = rng.uniform(-10, 10, size=300)
    ps = encode_planes(c, num_planes=24)
    for k in (1, 4, 8, 16):
        back = decode_planes(ps, keep=k)
        bound = 2.0 ** (ps.exponent - k + 1)
        assert np.max(np.abs(back - c)) <= bound


def test_signs_preserved():
    c = np.array([-1.5, 2.5, -0.25, 0.0, 4.0])
    ps = encode_planes(c, num_planes=30)
    back = decode_planes(ps)
    assert np.all(np.sign(back[np.abs(c) > 1e-6]) == np.sign(c[np.abs(c) > 1e-6]))


def test_empty_input():
    ps = encode_planes(np.zeros(0))
    assert ps.count == 0
    assert decode_planes(ps).size == 0


def test_all_zero_input():
    ps = encode_planes(np.zeros(64))
    back = decode_planes(ps)
    assert np.all(back == 0)


def test_invalid_num_planes():
    with pytest.raises(ValueError):
        encode_planes(np.ones(4), num_planes=0)
    with pytest.raises(ValueError):
        encode_planes(np.ones(4), num_planes=61)


def test_invalid_keep():
    ps = encode_planes(np.ones(4), num_planes=8)
    with pytest.raises(ValueError):
        decode_planes(ps, keep=9)
    with pytest.raises(ValueError):
        decode_planes(ps, keep=-1)


def test_plane_weight():
    ps = encode_planes(np.array([8.0]), num_planes=8)
    assert ps.exponent == 3  # plane i weighs 2 ** (exponent - i)
    assert 2.0 ** (ps.exponent - 0) == 8.0
    assert 2.0 ** (ps.exponent - 3) == 1.0


def test_msb_planes_compress_better_on_smooth_data():
    """MSB planes of smooth-field coefficients are mostly zeros."""
    x = np.linspace(0, 1, 4097)
    c = 1e-3 * np.sin(40 * x) + 1.0 * (x > 0.999)  # one large spike
    ps = encode_planes(c, num_planes=32)
    sizes = [len(p) for p in ps.planes]
    assert sizes[0] < sizes[-1]


@given(
    st.lists(st.floats(-1e9, 1e9, allow_nan=False, width=64), min_size=1, max_size=200),
    st.integers(min_value=8, max_value=48),
)
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(values, planes):
    c = np.array(values)
    ps = encode_planes(c, num_planes=planes)
    back = decode_planes(ps)
    amax = np.max(np.abs(c))
    if amax > 0 and ps.num_planes > 0:
        # ps.num_planes may be fewer than requested for data at the
        # subnormal floor; the bound always uses the effective count.
        assert np.max(np.abs(back - c)) <= 2.0 ** (
            ps.exponent - ps.num_planes + 1
        )
    elif amax == 0:
        assert np.all(back == 0)
