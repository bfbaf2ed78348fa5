"""Tests for adaptive bandwidth tracking and drifting network models."""

import numpy as np
import pytest

from repro.core import (
    RAPIDS,
    BandwidthTracker,
    adaptive_strategy,
    gathering_latency,
)
from repro.core.gathering import exact_strategy
from repro.metadata import MetadataCatalog
from repro.storage import StorageCluster
from repro.transfer import (
    DiurnalBandwidthModel,
    DriftingBandwidthModel,
    paper_bandwidth_profile,
)

SIZES = [1e9, 5e9, 25e9, 125e9]
MS = [8, 6, 4, 2]


@pytest.fixture
def tracker(tmp_path):
    catalog = MetadataCatalog(tmp_path / "meta")
    prior = paper_bandwidth_profile(16)
    yield BandwidthTracker(catalog, prior)
    catalog.close()


class TestDriftingModel:
    def test_step_changes_bandwidth(self):
        model = DriftingBandwidthModel(np.full(4, 1e9), sigma=0.2, seed=0)
        before = model.current.copy()
        after = model.step()
        assert not np.allclose(before, after)

    def test_clamped_to_range(self):
        model = DriftingBandwidthModel(
            np.full(4, 1e9), sigma=1.0, floor=0.5, ceiling=2.0, seed=1
        )
        for _ in range(100):
            bw = model.step()
            assert np.all(bw >= 0.5e9 - 1e-6)
            assert np.all(bw <= 2.0e9 + 1e-6)

    def test_observation_noise(self):
        model = DriftingBandwidthModel(np.full(2, 1e9), sigma=0.0, seed=2)
        obs = [model.observe(0, noise=0.1) for _ in range(200)]
        assert abs(np.median(obs) - 1e9) / 1e9 < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftingBandwidthModel(np.array([0.0]))
        with pytest.raises(ValueError):
            DriftingBandwidthModel(np.array([1.0]), sigma=-1)
        with pytest.raises(ValueError):
            DriftingBandwidthModel(np.array([1.0]), floor=2.0)


class TestDiurnalModel:
    def test_periodicity(self):
        model = DiurnalBandwidthModel(np.full(3, 1e9), amplitude=0.3, seed=0)
        np.testing.assert_allclose(model.at(0.0), model.at(86400.0))

    def test_amplitude_bound(self):
        model = DiurnalBandwidthModel(np.full(3, 1e9), amplitude=0.3, seed=0)
        for t in np.linspace(0, 86400, 25):
            bw = model.at(t)
            assert np.all(bw >= 0.7e9 - 1e-6)
            assert np.all(bw <= 1.3e9 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalBandwidthModel(np.array([1.0]), amplitude=1.5)
        with pytest.raises(ValueError):
            DiurnalBandwidthModel(np.array([-1.0]))
        with pytest.raises(ValueError):
            DiurnalBandwidthModel(np.array([1.0]), period=0)


class TestTracker:
    def test_prior_until_observed(self, tracker):
        np.testing.assert_array_equal(tracker.estimates(), tracker.prior)

    def test_observations_update_estimates(self, tracker):
        for _ in range(10):
            tracker.observe(3, 1e9, 2.0)  # 0.5 GB/s observed
        est = tracker.estimates()
        assert est[3] == pytest.approx(0.5e9, rel=1e-6)
        assert est[0] == tracker.prior[0]

    def test_observe_validation(self, tracker):
        with pytest.raises(ValueError):
            tracker.observe(99, 1.0, 1.0)
        with pytest.raises(ValueError):
            tracker.observe(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tracker.observe(0, 1.0, 0.0)

    def test_prior_validation(self, tmp_path):
        with MetadataCatalog(tmp_path / "m2") as cat:
            with pytest.raises(ValueError):
                BandwidthTracker(cat, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prior_rejected(self, tmp_path, bad):
        with MetadataCatalog(tmp_path / "m2") as cat:
            with pytest.raises(ValueError):
                BandwidthTracker(cat, np.array([1.0, bad]))

    @pytest.mark.parametrize(
        "nbytes, seconds",
        [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)],
    )
    def test_non_finite_observation_rejected(self, tracker, nbytes, seconds):
        """A NaN or infinite rate never reaches the running EWMA, where
        it would stay for good."""
        tracker.observe(0, 2e9, 1.0)
        with pytest.raises(ValueError):
            tracker.observe(0, nbytes, seconds)
        tracker.observe(0, 1e9, 1.0)
        assert tracker.estimates()[0] == (1 - 0.3) * 2e9 + 0.3 * 1e9

    def test_tracker_converges_under_drift(self, tracker):
        """After a few observe/estimate rounds the tracker's error
        against the drifted truth beats the stale prior's error."""
        rng = np.random.default_rng(0)
        true = tracker.prior * rng.uniform(0.4, 2.5, size=tracker.n)
        for _ in range(12):
            for i in range(tracker.n):
                tracker.observe(i, 1e9, 1e9 / true[i])
        err_prior = float(np.mean(np.abs(tracker.prior - true) / true))
        assert tracker.estimation_error(true) < err_prior / 3


class TestAdaptiveStrategy:
    def test_adaptive_beats_stale_prior_after_drift(self, tracker):
        """When bandwidths drift, gathering with tracked estimates yields
        lower *true* latency than optimising against the stale prior."""
        rng = np.random.default_rng(7)
        true = tracker.prior.copy()
        # invert the bandwidth ranking: the fastest sites became slow
        true = true[::-1].copy()
        for i in range(tracker.n):
            for _ in range(8):
                tracker.observe(i, 1e9, 1e9 / true[i])

        stale = exact_strategy(SIZES, MS, tracker.prior, [])
        adaptive = adaptive_strategy(tracker, SIZES, MS)
        t_stale = gathering_latency(stale, SIZES, MS, true)
        t_adaptive = gathering_latency(adaptive, SIZES, MS, true)
        assert t_adaptive < t_stale

    def test_adaptive_equals_optimized_without_observations(self, tracker):
        a = adaptive_strategy(tracker, SIZES, MS)
        b = exact_strategy(SIZES, MS, tracker.prior, [])
        assert np.array_equal(a.x, b.x)

    def test_pipeline_adaptive_is_this_function(self, tracker):
        """``RAPIDS`` gathering with ``strategy="adaptive"`` is
        :func:`adaptive_strategy` over the catalog's history."""
        true = tracker.prior[::-1].copy()
        for i in range(tracker.n):
            for _ in range(8):
                tracker.observe(i, 1e9, 1e9 / true[i])
        rapids = RAPIDS(StorageCluster(tracker.prior), tracker.catalog)
        plan = rapids._select("adaptive", SIZES, MS, [2])
        same = adaptive_strategy(tracker, SIZES, MS, [2])
        stale = exact_strategy(SIZES, MS, tracker.prior, [2])
        assert np.array_equal(plan.x, same.x)
        assert plan.levels_included == same.levels_included
        assert not np.array_equal(plan.x, stale.x)


class TestStalenessDecay:
    """WAN telemetry goes stale: estimates must decay back toward the
    prior as epochs pass without fresh observations (§4.3 extension)."""

    def mk(self, tmp_path, horizon):
        catalog = MetadataCatalog(tmp_path / "meta")
        prior = paper_bandwidth_profile(16)
        return catalog, BandwidthTracker(
            catalog, prior, staleness_horizon=horizon
        )

    def test_fresh_observation_fully_trusted(self, tmp_path):
        catalog, tracker = self.mk(tmp_path, 4.0)
        try:
            tracker.observe(0, 2e9, 1.0)
            assert tracker.age(0) == 0.0
            assert tracker.estimates()[0] == pytest.approx(2e9)
        finally:
            catalog.close()

    def test_decay_is_monotone_toward_prior(self, tmp_path):
        catalog, tracker = self.mk(tmp_path, 4.0)
        try:
            tracker.observe(0, 2e9, 1.0)  # well above the prior
            prior = tracker.prior[0]
            gaps = []
            prev_gap = abs(tracker.estimates()[0] - prior)
            for _ in range(12):
                tracker.tick()
                gap = abs(tracker.estimates()[0] - prior)
                assert gap <= prev_gap + 1e-9, "decay must be monotone"
                gaps.append(gap)
                prev_gap = gap
            # After 3 horizons the estimate is essentially the prior.
            assert gaps[-1] < 0.05 * abs(2e9 - prior)
        finally:
            catalog.close()

    def test_reobservation_resets_the_clock(self, tmp_path):
        catalog, tracker = self.mk(tmp_path, 4.0)
        try:
            tracker.observe(0, 2e9, 1.0)
            for _ in range(8):
                tracker.tick()
            decayed = tracker.estimates()[0]
            tracker.observe(0, 2e9, 1.0)
            assert tracker.age(0) == 0.0
            refreshed = tracker.estimates()[0]
            assert abs(refreshed - 2e9) < abs(decayed - 2e9)
        finally:
            catalog.close()

    def test_never_observed_system_stays_at_prior(self, tmp_path):
        catalog, tracker = self.mk(tmp_path, 4.0)
        try:
            for _ in range(10):
                tracker.tick()
            assert tracker.age(5) == 0.0  # no history: nothing is stale
            assert np.array_equal(tracker.estimates(), tracker.prior)
        finally:
            catalog.close()

    def test_no_horizon_means_no_decay(self, tmp_path):
        catalog, tracker = self.mk(tmp_path, None)
        try:
            tracker.observe(0, 2e9, 1.0)
            before = tracker.estimates()[0]
            for _ in range(50):
                tracker.tick()
            assert tracker.estimates()[0] == before
        finally:
            catalog.close()

    def test_validation(self, tmp_path):
        catalog = MetadataCatalog(tmp_path / "meta")
        try:
            prior = paper_bandwidth_profile(16)
            with pytest.raises(ValueError):
                BandwidthTracker(catalog, prior, staleness_horizon=0.0)
            with pytest.raises(ValueError):
                BandwidthTracker(catalog, prior, staleness_horizon=-1.0)
        finally:
            catalog.close()
