"""Tests for the Monte Carlo validators and the campaign simulator."""

import pytest

from repro.sim import (
    CampaignConfig,
    run_campaign,
    simulate_expected_error,
    simulate_unavailability,
)
from repro.storage import CorrelatedFailureModel

MS = [8, 5, 4, 2]
ERRORS = [4e-3, 5e-4, 6e-5, 1e-7]


class TestMonteCarloUnavailability:
    def test_matches_analytic_tail(self):
        # p large enough that the tail is measurable with 2e5 trials
        res = simulate_unavailability(16, 0.1, 3, trials=200_000, seed=1)
        assert abs(res.z_score) < 4.0

    @pytest.mark.parametrize("tolerance", [0, 1, 2])
    def test_various_tolerances(self, tolerance):
        res = simulate_unavailability(8, 0.2, tolerance, trials=100_000, seed=2)
        assert abs(res.z_score) < 4.5

    def test_zero_probability_tail(self):
        res = simulate_unavailability(4, 0.05, 4, trials=1000, seed=0)
        assert res.empirical == 0.0
        assert res.analytic == 0.0


class TestMonteCarloExpectedError:
    def test_matches_eq5(self):
        # p = 0.1 makes every band of Eq. 5 statistically visible
        res = simulate_expected_error(
            16, 0.1, MS, ERRORS, trials=300_000, seed=3
        )
        assert abs(res.z_score) < 4.0
        assert res.empirical == pytest.approx(res.analytic, rel=0.1)

    def test_paper_operating_point(self):
        """At p = 0.01 the expectation is dominated by the full-accuracy
        band; the empirical mean must sit at e_l up to tail noise."""
        res = simulate_expected_error(
            16, 0.01, MS, ERRORS, trials=100_000, seed=4
        )
        assert res.empirical >= ERRORS[-1]
        assert res.empirical < ERRORS[-2]

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_expected_error(16, 0.1, [2, 2], [0.1, 0.2], trials=10)
        with pytest.raises(ValueError):
            simulate_expected_error(16, 0.1, [3], [0.1, 0.2], trials=10)

    def test_correlated_failures_break_the_model(self):
        """Region-shared-fate outages push the empirical error above the
        i.i.d. prediction — the quantified caveat of the Eq. 5 model."""
        corr = CorrelatedFailureModel(
            regions=[[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14, 15]],
            p_region=0.05,
            p_single=0.05,
            seed=5,
        )
        res = simulate_expected_error(
            16, 0.1, MS, ERRORS, trials=30_000, seed=6, correlated=corr
        )
        assert res.empirical > res.analytic * 2


class TestCampaign:
    def cfg(self, **kw):
        base = dict(
            n=16, p_fail=0.02, p_repair=0.5, ms=tuple(MS),
            errors=tuple(ERRORS), epochs=4000, requests_per_epoch=2,
        )
        base.update(kw)
        return CampaignConfig(**base)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.cfg(p_fail=0.0)
        with pytest.raises(ValueError):
            self.cfg(ms=(2, 2, 1, 1))
        with pytest.raises(ValueError):
            self.cfg(ms=(20, 5, 4, 2))
        with pytest.raises(ValueError):
            self.cfg(epochs=0)

    def test_steady_state(self):
        cfg = self.cfg()
        assert cfg.steady_state_p == pytest.approx(0.02 / 0.52)

    def test_accounting_consistency(self):
        stats = run_campaign(self.cfg(), seed=0)
        assert stats.requests == 8000
        assert (
            stats.full_accuracy + stats.degraded + stats.blackout
            == stats.requests
        )
        assert sum(stats.levels_histogram.values()) == stats.requests
        assert 0 <= stats.availability <= 1

    def test_mean_error_tracks_analytic_steady_state(self):
        """With long campaigns, the request-weighted mean error approaches
        the Eq. 5 value at the chain's steady-state p."""
        from repro.core import expected_relative_error

        cfg = self.cfg(epochs=60_000, requests_per_epoch=1)
        stats = run_campaign(cfg, seed=1)
        analytic = expected_relative_error(
            cfg.n, cfg.steady_state_p, list(cfg.ms), list(cfg.errors)
        )
        assert stats.mean_error == pytest.approx(analytic, rel=0.35)

    def test_more_parity_fewer_blackouts(self):
        weak = run_campaign(self.cfg(ms=(4, 3, 2, 1), p_fail=0.05), seed=2)
        strong = run_campaign(self.cfg(ms=(12, 10, 8, 6), p_fail=0.05), seed=2)
        assert strong.blackout < weak.blackout
        assert strong.mean_error < weak.mean_error

    def test_deterministic(self):
        a = run_campaign(self.cfg(), seed=9)
        b = run_campaign(self.cfg(), seed=9)
        assert a.levels_histogram == b.levels_histogram
