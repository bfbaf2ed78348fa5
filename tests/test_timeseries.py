"""Tests for time-evolving datasets and 4-D refactoring."""

import numpy as np
import pytest

from repro.datasets.timeseries import advected_sequence
from repro.refactor import Refactorer, relative_linf_error


class TestAdvection:
    def test_shape_and_dtype(self):
        seq = advected_sequence(5, (9, 9, 9))
        assert seq.shape == (5, 9, 9, 9)
        assert seq.dtype == np.float32

    def test_deterministic(self):
        a = advected_sequence(4, (9, 9), seed=3)
        b = advected_sequence(4, (9, 9), seed=3)
        np.testing.assert_array_equal(a, b)

    def test_temporal_correlation_decays(self):
        seq = advected_sequence(
            12, (17, 17, 17), decorrelation=0.1, seed=0
        ).astype(np.float64)

        def corr(t):  # in the frame moving one cell per step with the field
            a = np.roll(seq[0], t, axis=0)
            return float(np.corrcoef(a.reshape(-1), seq[t].reshape(-1))[0, 1])

        c1 = corr(1)
        c10 = corr(11)
        assert c1 > 0.8
        assert c10 < c1

    def test_pure_advection_preserves_values(self):
        seq = advected_sequence(
            3, (8, 8), decorrelation=0.0, seed=1
        )
        np.testing.assert_allclose(
            np.sort(seq[0].reshape(-1)), np.sort(seq[2].reshape(-1)), atol=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            advected_sequence(0, (8, 8))
        with pytest.raises(ValueError):
            advected_sequence(2, (8, 8), decorrelation=1.0)


class Test4DRefactoring:
    def test_4d_roundtrip(self):
        seq = advected_sequence(9, (17, 17, 17), seed=2)
        r = Refactorer(4, num_planes=24)
        obj = r.refactor(seq)
        assert obj.shape == (9, 17, 17, 17)
        back = r.reconstruct(obj)
        assert relative_linf_error(seq, back) < 1e-5
        assert obj.sizes == sorted(obj.sizes)
        assert obj.errors == sorted(obj.errors, reverse=True)

    def test_temporal_coherence_helps_compression(self):
        """A coherent sequence refactors smaller than independent
        snapshots of the same marginal statistics — the 4-D transform
        exploits the time axis."""
        coherent = advected_sequence(
            8, (17, 17, 17), decorrelation=0.01, seed=0
        )
        independent = np.stack(
            [advected_sequence(1, (17, 17, 17), seed=100 + t)[0]
             for t in range(8)]
        )
        r = Refactorer(4, num_planes=20)
        cr_coherent = r.refactor(coherent, measure_errors=False).compression_ratio
        cr_independent = r.refactor(
            independent, measure_errors=False
        ).compression_ratio
        assert cr_coherent > cr_independent
