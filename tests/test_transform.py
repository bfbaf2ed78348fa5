"""Tests for the multilevel decompose/recompose transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.linalg import solve_banded

from repro.refactor import transform
from repro.refactor.grid import LevelPlan, coarse_indices, plan_levels


def _roundtrip(u, correction=True, max_levels=6):
    mallat, plans = transform.decompose(
        u, max_levels=max_levels, correction=correction
    )
    return transform.recompose(mallat, plans, correction=correction), plans


class TestRoundTrip:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 17, 33, 100, 101])
    def test_1d(self, n):
        rng = np.random.default_rng(n)
        u = rng.normal(size=n)
        back, _ = _roundtrip(u)
        np.testing.assert_allclose(back, u, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(9, 9), (17, 33), (10, 7), (4, 4)])
    def test_2d(self, shape):
        rng = np.random.default_rng(42)
        u = rng.normal(size=shape)
        back, _ = _roundtrip(u)
        np.testing.assert_allclose(back, u, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(9, 9, 9), (17, 8, 5), (6, 6, 6)])
    def test_3d(self, shape):
        rng = np.random.default_rng(7)
        u = rng.normal(size=shape)
        back, _ = _roundtrip(u)
        np.testing.assert_allclose(back, u, rtol=0, atol=1e-10)

    def test_without_correction(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(17, 17))
        back, _ = _roundtrip(u, correction=False)
        np.testing.assert_allclose(back, u, rtol=0, atol=1e-10)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=3, max_side=20),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, u):
        back, _ = _roundtrip(u)
        scale = max(1.0, float(np.max(np.abs(u))))
        np.testing.assert_allclose(back, u, rtol=0, atol=1e-8 * scale)


class TestStructure:
    def test_mallat_shape_preserved(self):
        u = np.random.default_rng(0).normal(size=(17, 17))
        mallat, plans = transform.decompose(u)
        assert mallat.shape == u.shape

    def test_group_rings_partition(self):
        shape = (17, 9)
        plans = plan_levels(shape, 3)
        rings = transform.group_rings(plans)
        hits = np.zeros(shape, dtype=np.int64)
        for ring in rings:
            ring.put(hits, ring.take(hits) + 1)
        assert (hits == 1).all()
        assert sum(r.size for r in rings) == 17 * 9
        # group 0 is the coarsest corner
        assert rings[0].size == int(np.prod(plans[-1].coarse_shape))

    def test_group_sizes_increase(self):
        shape = (65, 65)
        plans = plan_levels(shape, 4)
        sizes = [r.size for r in transform.group_rings(plans)]
        assert sizes == sorted(sizes)

    def test_smooth_data_has_small_details(self):
        """On a smooth field, detail coefficients are much smaller than
        the coarse approximation — the property RAPIDS exploits."""
        x = np.linspace(0, 1, 65)
        u = np.sin(2 * np.pi * np.outer(x, x))
        mallat, plans = transform.decompose(u)
        rings = transform.group_rings(plans)
        coarse_mag = np.max(np.abs(rings[0].take(mallat)))
        finest_mag = np.max(np.abs(rings[-1].take(mallat)))
        assert finest_mag < coarse_mag / 10

    def test_correction_changes_coarse(self):
        u = np.random.default_rng(5).normal(size=33)
        with_c, plans = transform.decompose(u, correction=True)
        without_c, _ = transform.decompose(u, correction=False)
        rings = transform.group_rings(plans)
        # detail coefficients identical; coarse values differ
        np.testing.assert_allclose(
            rings[-1].take(with_c), rings[-1].take(without_c)
        )
        assert not np.allclose(rings[0].take(with_c), rings[0].take(without_c))

    def test_l2_correction_improves_coarse_approximation(self):
        """Dropping all detail, the corrected coarse reconstruction should
        have lower L2 error than the uncorrected one (that is the point
        of the projection step)."""
        x = np.linspace(0, 1, 129)
        u = np.sin(4 * np.pi * x) + 0.3 * np.sin(11 * np.pi * x)

        def coarse_only_error(correction):
            mallat, plans = transform.decompose(
                u, max_levels=3, correction=correction
            )
            for ring in transform.group_rings(plans)[1:]:
                ring.put(mallat, np.zeros(ring.size))
            back = transform.recompose(mallat, plans, correction=correction)
            return float(np.sqrt(np.mean((back - u) ** 2)))

        assert coarse_only_error(True) < coarse_only_error(False)


class TestAlgebraicProperties:
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=2, min_side=3, max_side=17),
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        ),
        st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, u, alpha):
        """The multilevel transform is linear: T(a*u) == a*T(u)."""
        m1, plans = transform.decompose(u)
        m2, _ = transform.decompose(alpha * u, plans)
        np.testing.assert_allclose(
            m2, alpha * m1, atol=1e-9 * max(1.0, abs(alpha) * np.abs(u).max())
        )

    @given(
        arrays(
            np.float64,
            (9, 9),
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        ),
        arrays(
            np.float64,
            (9, 9),
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_additivity(self, u, v):
        """T(u + v) == T(u) + T(v)."""
        mu, plans = transform.decompose(u)
        mv, _ = transform.decompose(v, plans)
        muv, _ = transform.decompose(u + v, plans)
        scale = max(1.0, np.abs(u).max() + np.abs(v).max())
        np.testing.assert_allclose(muv, mu + mv, atol=1e-9 * scale)

    def test_constant_maps_to_coarse_only(self):
        """Constants are reproduced by the coarse basis: every detail
        coefficient vanishes (partition of unity of the hat functions)."""
        u = np.full((17, 17), 3.5)
        mallat, plans = transform.decompose(u)
        for ring in transform.group_rings(plans)[1:]:
            np.testing.assert_allclose(ring.take(mallat), 0.0, atol=1e-12)


class TestAxisKernels:
    """One coarsening step along one axis: a one-level plan, with the
    other axes a batch (leading) or left uncoarsened by the plan."""

    def test_decompose_axis_reorders(self):
        u = np.arange(9, dtype=np.float64)
        out, _ = transform.decompose(u[None, :], plan_levels((9,), 1))
        # linear data: detail coefficients are exactly zero, and with zero
        # detail the correction is zero so coarse values pass through
        np.testing.assert_allclose(out[0, :5], u[::2])
        np.testing.assert_allclose(out[0, 5:], 0.0, atol=1e-12)

    def test_recompose_axis_inverse(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(4, 10))
        fwd, plans = transform.decompose(u, plan_levels((10,), 1))
        back = transform.recompose(fwd, plans)
        np.testing.assert_allclose(back, u, atol=1e-12)

    def test_axis0(self):
        rng = np.random.default_rng(10)
        u = rng.normal(size=(11, 3))
        plans = [LevelPlan((11, 3), (6, 3), (0,))]
        fwd, _ = transform.decompose(u, plans)
        np.testing.assert_array_equal(fwd[:, 1], transform.decompose(
            u[:, 1], [LevelPlan((11,), (6,), (0,))]
        )[0])
        back = transform.recompose(fwd, plans)
        np.testing.assert_allclose(back, u, atol=1e-12)

    def test_batch_axes_are_never_transformed(self):
        """Each member of a stack comes out bit-identical to its own
        transform, in both directions (no member has an all-zero detail
        ring here), and plans that do not match the trailing shape are
        refused."""
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(2, 3, 9, 10))
        plans = plan_levels((9, 10), 6)
        fwd, _ = transform.decompose(stack, plans)
        back = transform.recompose(fwd, plans)
        for i in range(2):
            for j in range(3):
                single, _ = transform.decompose(stack[i, j], plans)
                assert np.array_equal(fwd[i, j].view(np.uint64),
                                      single.view(np.uint64))
                alone = transform.recompose(single, plans)
                assert np.array_equal(back[i, j].view(np.uint64),
                                      alone.view(np.uint64))
        with pytest.raises(ValueError, match="plans cover"):
            transform.recompose(fwd, plan_levels((9, 9), 6))

    def test_batched_recompose_differs_only_in_zero_signs(self):
        """A member whose detail rings are all zero (an early prefix)
        beside one whose are not: equal to its own recompose, and only
        zeros may change sign (``-0.0 + 0.0`` is ``+0.0``)."""
        plans = plan_levels((9, 10), 2)
        early = np.zeros((9, 10))
        early[tuple(slice(0, s) for s in plans[-1].coarse_shape)] = -0.0
        dense = np.random.default_rng(12).normal(size=(9, 10))
        back = transform.recompose(np.stack([early, dense]), plans)
        alone = transform.recompose(early, plans)
        assert np.array_equal(back[0], alone)
        moved = np.signbit(back[0]) != np.signbit(alone)
        assert moved.any() and not back[0][moved].any()
        assert np.array_equal(back[1].view(np.uint64),
                              transform.recompose(dense, plans).view(np.uint64))


# -- the cached, line-vectorised mass solve ------------------------------


def _mass_matrix(n):
    """(off-diagonal, diagonal) of the coarse hat-function mass matrix."""
    h = np.diff(coarse_indices(n)).astype(np.float64)
    d = np.zeros(h.size + 1)
    d[:-1] += h / 3.0
    d[1:] += h / 3.0
    return (h / 6.0).tolist(), d.tolist()


def _dgtsv_no_pivot(off, d, b):
    """LAPACK dgtsv's recurrence for one right-hand side, on Python floats.

    The branch dgtsv takes when ``|d[k]| >= |dl[k]|`` at every step,
    which the assert checks; sub- and super-diagonal are both ``off``.
    """
    d, b = list(d), list(b)
    n = len(d)
    for k in range(n - 1):
        assert abs(d[k]) >= abs(off[k])
        fact = off[k] / d[k]
        d[k + 1] = d[k + 1] - fact * off[k]
        b[k + 1] = b[k + 1] - fact * b[k]
    b[n - 1] = b[n - 1] / d[n - 1]
    for k in range(n - 2, -1, -1):
        b[k] = (b[k] - off[k] * b[k + 1]) / d[k]
    return b


class TestMassSolve:
    @given(
        n=st.integers(3, 257),
        lines=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_dgtsv_bitwise(self, n, lines, seed):
        """Every axis length plan_levels can hand the kernel (odd and
        even, so both spacing patterns), few lines and many."""
        off, d = _mass_matrix(n)
        load = np.random.default_rng(seed).standard_normal((len(d), lines))
        load *= 10.0 ** np.random.default_rng(seed + 1).integers(-8, 9)
        got = load.copy()
        transform._mass_solve(got, transform._axis_structure(n))
        want = np.array(
            [_dgtsv_no_pivot(off, d, load[:, j]) for j in range(lines)]
        ).T
        assert got.tobytes() == want.tobytes()
        # Bitwise equality with the linked LAPACK is what this build
        # shows; only agreement to rounding is promised.
        ab = np.zeros((3, len(d)))
        ab[0, 1:], ab[1], ab[2, :-1] = off, d, off
        np.testing.assert_allclose(
            got, solve_banded((1, 1), ab, load), rtol=1e-13,
            atol=1e-13 * np.abs(load).max(),
        )

    @pytest.mark.parametrize("n", [3, 4, 64, 129])
    @pytest.mark.parametrize("lines", [1, 5, 12, 40])
    def test_zero_rhs_gives_exact_zeros(self, n, lines):
        """What makes solving every line, zero or not, exact."""
        st_ = transform._axis_structure(n)
        load = np.zeros((st_["nc"], lines))
        load[:, lines // 2] = 1.0
        transform._mass_solve(load, st_)
        rest = np.delete(load, lines // 2, axis=1)
        assert not rest.any() and not np.signbit(rest).any()
        assert load[:, lines // 2].any()

    def test_line_count_does_not_change_a_line(self):
        """Few lines run on Python floats, many on array rows: same bits."""
        st_ = transform._axis_structure(65)
        load = np.random.default_rng(5).standard_normal((st_["nc"], 64))
        wide = load.copy()
        transform._mass_solve(wide, st_)
        for lo in range(0, 64, 4):
            few = load[:, lo : lo + 4].copy()
            assert few.shape[1] < transform._MIN_VECTOR_LINES
            transform._mass_solve(few, st_)
            assert few.tobytes() == wide[:, lo : lo + 4].tobytes()


class TestZeroBlockShortcut:
    @pytest.mark.parametrize("shape", [(33,), (18, 17), (17, 18, 19)])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_output_identical_with_and_without(self, monkeypatch, shape, workers):
        """A prefix whose fine rings are still zero: skipping their
        blocks gives the bits the full computation gives."""
        u = np.random.default_rng(11).normal(size=shape)
        mallat, plans = transform.decompose(u)
        for ring in transform.group_rings(plans)[-2:]:
            ring.put(mallat, np.zeros(ring.size))
        verdicts = []
        real = transform._any_nonzero

        def spy(block):
            verdicts.append(real(block))
            return verdicts[-1]

        monkeypatch.setattr(transform, "_any_nonzero", spy)
        short = transform.recompose(mallat, plans, workers=workers)
        assert False in verdicts and True in verdicts
        monkeypatch.setattr(transform, "_any_nonzero", lambda block: True)
        full = transform.recompose(mallat, plans, workers=workers)
        assert short.tobytes() == full.tobytes()

    def test_overwrite_transforms_the_callers_buffer(self):
        u = np.random.default_rng(12).normal(size=(17, 9))
        mallat, plans = transform.decompose(u)
        want = transform.recompose(mallat, plans)
        keep = mallat.copy()
        assert transform.recompose(mallat, plans) is not mallat
        assert mallat.tobytes() == keep.tobytes()
        out = transform.recompose(mallat, plans, overwrite=True)
        assert out is mallat and out.tobytes() == want.tobytes()
        # Anything that is not a float64 array is copied as before.
        as32 = keep.astype(np.float32)
        out32 = transform.recompose(as32, plans, overwrite=True)
        assert out32 is not as32 and out32.dtype == np.float64
