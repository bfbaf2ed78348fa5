"""4-D refactoring: a snapshot sequence is one (t, z, y, x) array, and
the time axis coarsens like any other."""

import numpy as np

from repro.datasets import gaussian_random_field
from repro.refactor import Refactorer, relative_linf_error


def advected_sequence(steps, shape, *, decorrelation=0.02, seed=0):
    """``steps`` float32 snapshots of a smooth field moving one cell per
    step along its first axis, each step replacing ``decorrelation`` of
    its variance with fresh noise."""
    field = gaussian_random_field(shape, slope=4.0, seed=seed, dtype=np.float64)
    out = np.empty((steps,) + tuple(shape), dtype=np.float32)
    for t in range(steps):
        out[t] = field
        fresh = gaussian_random_field(
            shape, slope=4.0, seed=seed + 1000 + t, dtype=np.float64
        )
        field = (np.sqrt(1 - decorrelation) * np.roll(field, 1, axis=0)
                 + np.sqrt(decorrelation) * fresh)
    return out




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
