"""Tests for heterogeneous outage probabilities (Poisson-binomial)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FTProblem, expected_relative_error, prob_more_than_k_failures
from repro.core.heterogeneous import (
    expected_relative_error_hetero,
    poisson_binomial_pmf,
    prob_more_than_k_failures_hetero,
)

from .test_availability import exact_binom_pmf

MS = [8, 5, 4, 2]
ERRORS = [4e-3, 5e-4, 6e-5, 1e-7]


class TestPmf:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        pmf = poisson_binomial_pmf(rng.uniform(0, 1, 12))
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    def test_uniform_matches_binomial(self):
        from scipy import stats

        pmf = poisson_binomial_pmf(np.full(10, 0.07))
        np.testing.assert_allclose(
            pmf, stats.binom.pmf(range(11), 10, 0.07), atol=1e-14
        )

    def test_degenerate_cases(self):
        pmf = poisson_binomial_pmf([0.0, 0.0])
        assert pmf[0] == 1.0
        pmf = poisson_binomial_pmf([1.0, 1.0, 1.0])
        assert pmf[3] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([])
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, 1.5])
        with pytest.raises(ValueError):
            poisson_binomial_pmf(np.ones((2, 2)))

    @given(
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=1e-4, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_within_n_ulps_of_exact_binomial(self, n, p):
        """The pmf the binomial model reads: every entry within n * 2**-52
        relative of the exact rational binomial, the total within n ulps
        of 1, and a scalar p the same array as its uniform vector."""
        pmf = poisson_binomial_pmf(np.full(n, p))
        # An entry below 2**(n - 1022) may have passed through subnormals
        # on its way (C(n, k) <= 2**n); those are checked absolutely.
        floor = Fraction(2) ** (n - 1022)
        for got, exact in zip(pmf.tolist(), exact_binom_pmf(n, p)):
            err = abs(Fraction(got) - exact)
            assert err <= (Fraction(n, 2**52) * exact if exact >= floor else floor)
        assert abs(math.fsum(pmf.tolist()) - 1.0) <= n * 2**-52
        problem = FTProblem(n + 1, p, (1.0,), (0.1,), 10.0, 1.0)
        assert problem._pmf == tuple(poisson_binomial_pmf([p] * (n + 1)).tolist())
        assert prob_more_than_k_failures(n, n // 2, p) == (
            prob_more_than_k_failures_hetero([p] * n, n // 2)
        )

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_mean_property(self, ps):
        """E[N] = sum p_i (a defining property of Poisson-binomial)."""
        pmf = poisson_binomial_pmf(ps)
        mean = float(np.arange(len(pmf)) @ pmf)
        assert mean == pytest.approx(sum(ps), abs=1e-9)


class TestTailAndExpectedError:
    def test_uniform_reduces_to_binomial_tail(self):
        ps = np.full(16, 0.01)
        for k in (-1, 0, 3, 8, 16):
            assert prob_more_than_k_failures_hetero(ps, k) == pytest.approx(
                prob_more_than_k_failures(16, k, 0.01), abs=1e-14
            )

    def test_uniform_reduces_to_eq5(self):
        ps = np.full(16, 0.01)
        assert expected_relative_error_hetero(ps, MS, ERRORS) == pytest.approx(
            expected_relative_error(16, 0.01, MS, ERRORS), rel=1e-12
        )

    def test_validation(self):
        ps = np.full(16, 0.01)
        with pytest.raises(ValueError):
            expected_relative_error_hetero(ps, [2, 2], [0.1, 0.01])
        with pytest.raises(ValueError):
            expected_relative_error_hetero(ps, [16, 2], [0.1, 0.01])
        with pytest.raises(ValueError):
            expected_relative_error_hetero(ps, [], [])

    def test_alpine_theta_mix_worse_than_alpine_only(self):
        """The paper's own facilities: a fleet mixing Theta-grade sites
        (p = 0.052) is strictly worse than the uniform-Alpine assumption
        (p = 0.0107) predicts."""
        alpine = np.full(16, 0.0107)
        mixed = alpine.copy()
        mixed[8:] = 0.052
        e_assumed = expected_relative_error_hetero(alpine, MS, ERRORS)
        e_actual = expected_relative_error_hetero(mixed, MS, ERRORS)
        assert e_actual > e_assumed * 2

    def test_mean_matched_uniform_underestimates(self):
        """Even matching the *average* p, heterogeneity increases the
        deep-failure tail that dominates the expected error."""
        mixed = np.array([0.002] * 8 + [0.098] * 8)
        uniform = np.full(16, float(mixed.mean()))
        e_mixed = expected_relative_error_hetero(mixed, MS, ERRORS)
        e_uniform = expected_relative_error_hetero(uniform, MS, ERRORS)
        assert e_mixed != pytest.approx(e_uniform, rel=1e-3)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(1)
        ps = rng.uniform(0.02, 0.2, size=12)
        ms = [6, 4, 2, 1]
        trials = 200_000
        fails = (rng.random((trials, 12)) < ps[None, :]).sum(axis=1)
        err_arr = np.asarray(ERRORS)
        recoverable = (fails[:, None] <= np.asarray(ms)[None, :]).sum(axis=1)
        scores = np.where(
            recoverable == 0, 1.0, err_arr[np.maximum(recoverable - 1, 0)]
        )
        emp = scores.mean()
        se = scores.std(ddof=1) / np.sqrt(trials)
        analytic = expected_relative_error_hetero(ps, ms, ERRORS)
        assert abs(emp - analytic) < 4.5 * se
