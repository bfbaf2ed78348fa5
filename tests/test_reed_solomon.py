"""Unit and property tests for the Reed-Solomon erasure code."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import gf256, matrix
from repro.ec.reed_solomon import RSCode, pad_to_fragments, unpad


class TestMatrix:
    def test_identity_matmul(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        assert np.array_equal(matrix.matmul(matrix.identity(5), a), a)
        assert np.array_equal(matrix.matmul(a, matrix.identity(5)), a)

    def test_matmul_shapes(self):
        with pytest.raises(ValueError):
            matrix.matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))
        with pytest.raises(ValueError):
            matrix.matmul(np.zeros(3, np.uint8), np.zeros((3, 3), np.uint8))

    def test_matmul_scalar_agreement(self):
        """Cross-check the vectorised kernel against naive triple loop."""
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
        b = rng.integers(0, 256, size=(3, 5), dtype=np.uint8)
        got = matrix.matmul(a, b)
        want = np.zeros((4, 5), dtype=np.uint8)
        for i in range(4):
            for j in range(5):
                acc = 0
                for t in range(3):
                    acc ^= int(gf256.mul(a[i, t], b[t, j]))
                want[i, j] = acc
        assert np.array_equal(got, want)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_invert_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        # Rejection-sample an invertible matrix.
        for _ in range(50):
            m = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
            try:
                inv = matrix.invert(m)
            except np.linalg.LinAlgError:
                continue
            assert matrix.is_identity(matrix.matmul(m, inv))
            assert matrix.is_identity(matrix.matmul(inv, m))
            return

    def test_invert_singular_raises(self):
        m = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            matrix.invert(m)
        m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            matrix.invert(m)

    def test_invert_non_square_raises(self):
        with pytest.raises(ValueError):
            matrix.invert(np.zeros((2, 3), dtype=np.uint8))

    def test_vandermonde_any_k_rows_invertible(self):
        v = matrix.vandermonde(8, 4)
        for rows in itertools.combinations(range(8), 4):
            matrix.invert(v[list(rows)])  # must not raise

    def test_vandermonde_too_many_points(self):
        with pytest.raises(ValueError):
            matrix.vandermonde(257, 4)


class TestPadding:
    def test_pad_unpad_roundtrip(self):
        data = b"hello scientific world"
        shards = pad_to_fragments(data, 5)
        assert shards.shape[0] == 5
        assert unpad(shards) == data

    def test_pad_empty(self):
        shards = pad_to_fragments(b"", 3)
        assert unpad(shards) == b""

    def test_pad_exact_multiple(self):
        data = bytes(range(16))
        shards = pad_to_fragments(data, 4)
        assert shards.shape == (4, 6)  # (16 + 8) / 4
        assert unpad(shards) == data

    def test_unpad_corrupt_header(self):
        shards = pad_to_fragments(b"abc", 2)
        flat = shards.reshape(-1).copy()
        flat[:8] = np.frombuffer(np.uint64(10**9).tobytes(), dtype=np.uint8)
        with pytest.raises(ValueError):
            unpad(flat.reshape(shards.shape))

    @given(st.binary(min_size=0, max_size=500), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data, k):
        assert unpad(pad_to_fragments(data, k)) == data


class TestRSCode:
    def test_validation(self):
        with pytest.raises(ValueError):
            RSCode(0, 2)
        with pytest.raises(ValueError):
            RSCode(4, -1)
        with pytest.raises(ValueError):
            RSCode(200, 100)

    def test_systematic_property(self):
        code = RSCode(4, 2)
        data = bytes(range(64))
        frags = code.encode(data)
        assert len(frags) == 6
        shards = pad_to_fragments(data, 4)
        for i in range(4):
            assert np.array_equal(frags[i], shards[i])

    def test_zero_parity(self):
        code = RSCode(3, 0)
        data = b"x" * 30
        frags = code.encode(data)
        assert len(frags) == 3
        assert code.decode({i: f for i, f in enumerate(frags)}) == data

    def test_decode_all_combinations(self):
        code = RSCode(4, 3)
        data = np.random.default_rng(3).integers(0, 256, 200, dtype=np.uint8).tobytes()
        frags = code.encode(data)
        for subset in itertools.combinations(range(7), 4):
            got = code.decode({i: frags[i] for i in subset})
            assert got == data, f"failed for subset {subset}"

    def test_decode_insufficient(self):
        code = RSCode(4, 2)
        frags = code.encode(b"payload")
        with pytest.raises(ValueError):
            code.decode({0: frags[0], 1: frags[1], 2: frags[2]})

    def test_decode_bad_index(self):
        code = RSCode(2, 1)
        frags = code.encode(b"ab")
        with pytest.raises(ValueError):
            code.decode({0: frags[0], 7: frags[1]})

    def test_reconstruct_fragment(self):
        code = RSCode(5, 3)
        data = bytes(range(100))
        frags = code.encode(data)
        available = {i: frags[i] for i in (0, 2, 3, 6, 7)}
        for target in range(8):
            rebuilt = code.reconstruct_fragment(available, target)
            assert np.array_equal(rebuilt, frags[target]), target

    def test_reconstruct_bad_target(self):
        code = RSCode(2, 1)
        frags = code.encode(b"zz")
        with pytest.raises(ValueError):
            code.reconstruct_fragment({0: frags[0], 1: frags[1]}, 5)

    @given(
        st.binary(min_size=1, max_size=300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_mds_property(self, data, k, m, seed):
        """Any k of n fragments recover the payload exactly."""
        code = RSCode(k, m)
        frags = code.encode(data)
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(k + m, size=k, replace=False).tolist())
        assert code.decode({i: frags[i] for i in keep}) == data

    def test_fragment_sizes_equal(self):
        code = RSCode(4, 2)
        frags = code.encode(b"q" * 101)
        sizes = {f.nbytes for f in frags}
        assert len(sizes) == 1

    def test_generator_readonly(self):
        code = RSCode(3, 2)
        with pytest.raises(ValueError):
            code.generator[0, 0] = 1
