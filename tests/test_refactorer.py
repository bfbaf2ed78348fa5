"""End-to-end tests for the Refactorer (the pMGARD substitute)."""

import struct

import numpy as np
import pytest

from repro.refactor import Refactorer, relative_linf_error
from repro.refactor import components
from repro.refactor.error_model import MGARD_CONSTANT, theoretical_bound
from repro.refactor.bitplane import encode_planes


def smooth_field(n=33, seed=0, dims=3):
    """A smooth multiscale field resembling simulation output."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.linspace(0, 1, n)] * dims, indexing="ij")
    u = np.zeros([n] * dims)
    for k in (1, 2, 5):
        phase = rng.uniform(0, 2 * np.pi, size=dims)
        term = np.ones_like(u)
        for ax, ph in zip(axes, phase):
            term = term * np.sin(2 * np.pi * k * ax + ph)
        u += term / k**2
    return u.astype(np.float32)


class TestRefactorBasics:
    def test_sizes_increase(self):
        obj = Refactorer(4).refactor(smooth_field())
        s = obj.sizes
        assert len(s) == 4
        assert s[0] < s[1] < s[2] < s[3], s

    def test_errors_decrease(self):
        obj = Refactorer(4).refactor(smooth_field())
        e = obj.errors
        assert e[0] > e[1] > e[2] > e[3], e
        assert e[-1] < 1e-4

    def test_full_reconstruction_error_bounded(self):
        data = smooth_field()
        r = Refactorer(4, num_planes=32)
        obj = r.refactor(data)
        back = r.reconstruct(obj)
        assert back.shape == data.shape
        assert back.dtype == data.dtype
        assert relative_linf_error(data, back) < 1e-5

    def test_compression(self):
        """Total refactored size must be below the original (S > sum s_j)."""
        data = smooth_field(n=33)
        obj = Refactorer(4).refactor(data)
        assert obj.total_bytes < obj.original_nbytes
        assert obj.compression_ratio > 1.0

    def test_bounds_dominate_errors(self):
        data = smooth_field()
        obj = Refactorer(4).refactor(data)
        for e, b in zip(obj.errors, obj.bounds):
            assert e <= b * 1.0000001, (e, b)

    def test_prefix_reconstruction(self):
        data = smooth_field()
        r = Refactorer(4)
        obj = r.refactor(data)
        errs = [
            relative_linf_error(data, r.reconstruct(obj, upto=j))
            for j in (1, 2, 3, 4)
        ]
        assert errs == obj.errors

    def test_measure_errors_false_uses_bounds(self):
        data = smooth_field()
        obj = Refactorer(3).refactor(data, measure_errors=False)
        assert obj.errors == obj.bounds

    def test_2d_and_1d(self):
        for shape in [(129,), (65, 65)]:
            rng = np.random.default_rng(1)
            x = np.linspace(0, 1, shape[0])
            data = (
                np.sin(3 * x).astype(np.float64)
                if len(shape) == 1
                else np.outer(np.sin(3 * x), np.cos(2 * x))
            )
            r = Refactorer(3)
            obj = r.refactor(data)
            back = r.reconstruct(obj)
            assert relative_linf_error(data, back) < 1e-5

    def test_float64_input(self):
        data = smooth_field().astype(np.float64)
        obj = Refactorer(2).refactor(data)
        assert obj.dtype == "float64"

    def test_rejects_ints(self):
        with pytest.raises(TypeError):
            Refactorer(2).refactor(np.ones((8, 8), dtype=np.int32))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            Refactorer(2).refactor(np.float64(3.0))

    def test_invalid_num_components(self):
        with pytest.raises(ValueError):
            Refactorer(0)

    def test_reconstruct_upto_validation(self):
        obj = Refactorer(3).refactor(smooth_field(n=17))
        r = Refactorer(3)
        with pytest.raises(ValueError):
            r.reconstruct(obj, upto=0)
        with pytest.raises(ValueError):
            r.reconstruct(obj, upto=5)

    def test_reconstruct_with_explicit_payloads(self):
        data = smooth_field(n=17)
        r = Refactorer(3)
        obj = r.refactor(data)
        back = r.reconstruct(obj, payloads=obj.payloads[:2])
        assert relative_linf_error(data, back) == obj.errors[1]

    def test_reconstruct_rejects_groups_the_layout_lacks(self):
        """A payload naming a coefficient group past the object's layout
        is an error, not a group silently left out."""
        r = Refactorer(3)
        obj = r.refactor(smooth_field(n=17))
        ngroups = len(obj.plans) + 1
        first = obj.payloads[0]
        index, entries = components.component_from_bytes(first)
        ref, blob, meta = entries[0]
        # The first entry again, under the group one past the last.
        stray = struct.pack("<HHIiHI", ngroups, ref.plane, *meta, len(blob))
        crafted = (
            first[:4] + struct.pack("<HI", index, len(entries) + 1)
            + first[10:] + stray + blob
        )
        assert len(components.component_from_bytes(crafted)[1]) == (
            len(entries) + 1
        )
        with pytest.raises(ValueError, match=f"names {ngroups + 1} coeff"):
            r.reconstruct(obj, payloads=[crafted])


class TestPolicies:
    def test_per_level_policy(self):
        data = smooth_field(n=17)
        obj = Refactorer(3, policy="per-level", max_levels=2).refactor(data)
        assert len(obj.payloads) == 3
        e = obj.errors
        assert e[0] >= e[-1]

    def test_importance_beats_per_level_at_equal_prefix_size(self):
        """The cross-level reordering should reach lower error per byte —
        the core pMGARD design claim the ablation bench quantifies."""
        data = smooth_field(n=33)
        imp = Refactorer(4, policy="importance").refactor(data)
        # error after ~the first quarter of bytes
        target = sum(imp.sizes) / 4
        acc, j = 0, 0
        while acc < target and j < 3:
            acc += imp.sizes[j]
            j += 1
        assert imp.errors[j - 1] < 0.1

    def test_correction_ablation_runs(self):
        data = smooth_field(n=17)
        obj = Refactorer(3, correction=False).refactor(data)
        r = Refactorer(3, correction=False)
        back = r.reconstruct(obj)
        assert relative_linf_error(data, back) < 1e-4

    def test_size_ratio_controls_skew(self):
        data = smooth_field(n=33)
        steep = Refactorer(4, size_ratio=8.0).refactor(data)
        flat = Refactorer(4, size_ratio=1.5).refactor(data)
        assert steep.sizes[0] <= flat.sizes[0] * 2
        assert (steep.sizes[-1] / steep.sizes[0]) > (
            flat.sizes[-1] / flat.sizes[0]
        )


class TestErrorModel:
    def test_relative_linf_identity(self):
        d = np.array([1.0, -2.0, 3.0])
        assert relative_linf_error(d, d) == 0.0

    def test_relative_linf_zero_reconstruction_is_one(self):
        d = np.array([1.0, -2.0, 3.0])
        assert relative_linf_error(d, np.zeros(3)) == 1.0

    def test_relative_linf_zero_data(self):
        z = np.zeros(3)
        assert relative_linf_error(z, z) == 0.0
        assert relative_linf_error(z, np.ones(3)) == np.inf

    def test_relative_linf_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_linf_error(np.zeros(3), np.zeros(4))

    def test_theoretical_bound_monotone(self):
        ps = [encode_planes(np.random.default_rng(0).normal(size=50), 16)]
        bounds = [theoretical_bound(ps, [k], 10.0) for k in range(17)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_theoretical_bound_validation(self):
        ps = [encode_planes(np.ones(4), 8)]
        with pytest.raises(ValueError):
            theoretical_bound(ps, [1, 2], 1.0)
        with pytest.raises(ValueError):
            theoretical_bound(ps, [9], 1.0)
        with pytest.raises(ValueError):
            theoretical_bound(ps, [1], 0.0)

    def test_mgard_constant(self):
        assert abs(MGARD_CONSTANT - (1 + np.sqrt(3) / 2)) < 1e-12
