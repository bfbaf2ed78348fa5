"""Tests for the cluster scaling model and the GPU batched backend."""

import numpy as np
import pytest

from repro.parallel import (
    ALPINE_FS,
    K80_MODEL,
    ClusterScalingModel,
    GPUDeviceModel,
    OperationRates,
    batched_decompose,
    batched_recompose,
)
from repro.refactor import transform


class TestScalingModel:
    rates = OperationRates(
        refactor=50e6, reconstruct=80e6, ec_encode=400e6, ec_decode=500e6
    )

    def test_filesystem_saturation(self):
        assert ALPINE_FS.bandwidth(1) == 0.5e9
        assert ALPINE_FS.bandwidth(10**6) == 2.5e12
        with pytest.raises(ValueError):
            ALPINE_FS.bandwidth(0)

    def test_compute_scales_with_cores(self):
        m = ClusterScalingModel(self.rates)
        t64 = m.compute_time("refactor", 1e12, 64)
        t1024 = m.compute_time("refactor", 1e12, 1024)
        assert t1024 < t64 / 10

    def test_efficiency_below_perfect(self):
        m = ClusterScalingModel(self.rates)
        perfect = m.compute_time("refactor", 1e12, 1) / 256
        assert m.compute_time("refactor", 1e12, 256) > perfect

    def test_validation(self):
        m = ClusterScalingModel(self.rates)
        with pytest.raises(KeyError):
            m.compute_time("warp", 1.0, 1)
        with pytest.raises(ValueError):
            m.compute_time("refactor", 1.0, 0)

    def test_preparation_phase_shapes(self):
        m = ClusterScalingModel(self.rates)
        dp = m.preparation_times("DP", cores=64, original_bytes=1e12,
                                 distribution_latency=100.0)
        assert dp == {"distribute": 100.0}
        ec = m.preparation_times("EC", cores=64, original_bytes=1e12,
                                 ec_stored_bytes=1.33e12,
                                 distribution_latency=50.0)
        assert set(ec) == {"read", "ec_encode", "write", "distribute"}
        rf = m.preparation_times("RF+EC", cores=64, original_bytes=1e12,
                                 refactored_bytes=3e11,
                                 distribution_latency=20.0,
                                 ft_optimize_time=0.1)
        assert set(rf) == {
            "read", "refactor", "ft_optimize", "ec_encode", "write", "distribute",
        }
        with pytest.raises(ValueError):
            m.preparation_times("EC", cores=64, original_bytes=1e12)
        with pytest.raises(ValueError):
            m.preparation_times("??", cores=64, original_bytes=1e12)

    def test_crossover_dynamics(self):
        """The Table 4 shape: at low core counts EC beats RF+EC (refactor
        dominates); at high core counts RF+EC wins (smaller bytes)."""
        m = ClusterScalingModel(self.rates)
        kw_ec = dict(original_bytes=16e12, ec_stored_bytes=16e12 * 4 / 3,
                     distribution_latency=3000.0)
        kw_rf = dict(original_bytes=16e12, refactored_bytes=4e12,
                     distribution_latency=900.0, ft_optimize_time=1.0)
        ec64 = sum(m.preparation_times("EC", cores=64, **kw_ec).values())
        rf64 = sum(m.preparation_times("RF+EC", cores=64, **kw_rf).values())
        ec1024 = sum(m.preparation_times("EC", cores=1024, **kw_ec).values())
        rf1024 = sum(m.preparation_times("RF+EC", cores=1024, **kw_rf).values())
        assert rf64 > ec64
        assert rf1024 < ec1024

    def test_restoration_phase_shapes(self):
        m = ClusterScalingModel(self.rates)
        rf = m.restoration_times("RF+EC", cores=256, original_bytes=1e12,
                                 gathered_bytes=3e11, gathering_latency=10.0,
                                 gather_optimize_time=60.0)
        assert set(rf) == {
            "gather_optimize", "gather", "read", "ec_decode", "reconstruct",
        }
        dp = m.restoration_times("DP", cores=256, original_bytes=1e12,
                                 gathering_latency=99.0)
        assert dp == {"gather": 99.0}
        with pytest.raises(ValueError):
            m.restoration_times("EC", cores=1, original_bytes=1.0)


class TestGPU:
    def test_batched_matches_per_block(self):
        """Batched decomposition is bit-identical to looping over blocks
        (the same transform, with the block axis as its batch)."""
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(4, 17, 9)).astype(np.float64)
        stacked, plans = batched_decompose(blocks)
        for b in range(4):
            single, plans_s = transform.decompose(blocks[b], max_levels=6)
            assert [p.fine_shape for p in plans] == [p.fine_shape for p in plans_s]
            assert np.array_equal(stacked[b].view(np.uint64), single.view(np.uint64))

    def test_batched_roundtrip(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(3, 9, 9, 9))
        stacked, plans = batched_decompose(blocks)
        back = batched_recompose(stacked, plans)
        np.testing.assert_allclose(back, blocks, atol=1e-10)

    def test_batched_validation(self):
        with pytest.raises(ValueError):
            batched_decompose(np.zeros(5))

    def test_device_model(self):
        assert K80_MODEL.device_throughput("refactor", 1e8) == pytest.approx(3.7e8)
        assert K80_MODEL.device_throughput("reconstruct", 1e8) == pytest.approx(20.3e8)
        with pytest.raises(KeyError):
            K80_MODEL.device_throughput("encode", 1e8)
        with pytest.raises(ValueError):
            K80_MODEL.device_throughput("refactor", 0.0)
        with pytest.raises(ValueError):
            GPUDeviceModel("bad", -1.0, 2.0)
